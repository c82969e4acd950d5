#include "storage/segment_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/crc32c.h"

namespace mdw::storage {

// Raw column values are written in native byte order and the header
// declares little-endian; refuse to build elsewhere rather than byte-swap.
static_assert(std::endian::native == std::endian::little,
              "segment files assume a little-endian host");

namespace {

constexpr char kMagic[8] = {'M', 'D', 'W', 'S', 'E', 'G', '1', '\0'};
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kFlagHasSummaries = 1u << 0;

/// Fixed-size prefix of the header, before the column and fragment
/// directories. v2 extended the v1 prefix (96 bytes) with the checksum
/// block and data page counts; v3 keeps it.
constexpr std::int64_t kFixedHeaderBytes = 112;
/// One column-directory entry: first page, value count and (since v3)
/// the value width in bytes.
constexpr std::int64_t kColumnEntryBytes = 24;

/// Offsets inside the fixed prefix used by version detection.
constexpr std::int64_t kVersionOffset = 8;   ///< after the magic
constexpr std::int64_t kPrefixProbeBytes = 16;  ///< magic + version + endian

std::int64_t CeilDiv(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

void Append(std::vector<std::byte>* out, const void* data, std::size_t len) {
  const std::size_t at = out->size();
  out->resize(at + len);
  std::memcpy(out->data() + at, data, len);
}
void AppendU32(std::vector<std::byte>* out, std::uint32_t v) {
  Append(out, &v, sizeof v);
}
void AppendI32(std::vector<std::byte>* out, std::int32_t v) {
  Append(out, &v, sizeof v);
}
void AppendI64(std::vector<std::byte>* out, std::int64_t v) {
  Append(out, &v, sizeof v);
}
void AppendU64(std::vector<std::byte>* out, std::uint64_t v) {
  Append(out, &v, sizeof v);
}

void WriteAll(int fd, const std::byte* data, std::int64_t len,
              const char* what) {
  const char* p = reinterpret_cast<const char*>(data);
  while (len > 0) {
    const ssize_t got = ::write(fd, p, static_cast<std::size_t>(len));
    if (got < 0 && errno == EINTR) continue;
    MDW_CHECK(got > 0, what);
    p += got;
    len -= got;
  }
}

/// pread the exact byte range [off, off + len) of `fd`, retrying EINTR
/// and partial reads. Returns false (with `why`) on error or early EOF.
bool PreadExact(int fd, std::byte* dst, std::int64_t len, std::int64_t off,
                const std::string& path, std::string* why) {
  char* out = reinterpret_cast<char*>(dst);
  while (len > 0) {
    const ssize_t n = ::pread(fd, out, static_cast<std::size_t>(len),
                              static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *why = "cannot read existing segment " + path + ": " +
             std::strerror(errno);
      return false;
    }
    if (n == 0) {
      *why = "existing segment " + path + " is truncated";
      return false;
    }
    len -= n;
    off += n;
    out += n;
  }
  return true;
}

/// Local value count of column `c` in shard `s` (prefix columns carry
/// one extra boundary value).
std::int64_t ValueCount(const SegmentStore::BuildInput& input, int s, int c) {
  const std::int64_t rows = input.shard_row_begin[static_cast<std::size_t>(s) + 1] -
                            input.shard_row_begin[static_cast<std::size_t>(s)];
  const bool is_prefix = input.has_summaries && c >= input.num_dims + 2;
  return is_prefix ? rows + 1 : rows;
}

int ColumnCount(const SegmentStore::BuildInput& input) {
  return input.num_dims + 2 + (input.has_summaries ? 2 : 0);
}

/// Page geometry of shard `s`'s segment: [header | checksums | data].
struct ShardGeometry {
  std::int64_t header_pages;
  std::int64_t checksum_pages;
  std::int64_t data_pages;
};

ShardGeometry GeometryOf(const SegmentStore::BuildInput& input, int s) {
  const int cols = ColumnCount(input);
  const auto& frags = input.shard_fragments[static_cast<std::size_t>(s)];
  const std::int64_t raw_bytes =
      kFixedHeaderBytes + kColumnEntryBytes * cols +
      24 * static_cast<std::int64_t>(frags.size());
  ShardGeometry g;
  g.header_pages = CeilDiv(raw_bytes, input.page_size);
  g.data_pages = 0;
  for (int c = 0; c < cols; ++c) {
    g.data_pages += CeilDiv(ValueCount(input, s, c), input.tuples_per_page);
  }
  g.checksum_pages = CeilDiv(
      g.data_pages * static_cast<std::int64_t>(sizeof(std::uint32_t)),
      input.page_size);
  return g;
}

/// Builds each data page image of column `c` in shard `s` into `*page`
/// in turn — `tuples_per_page` values at the column's width, the tail
/// zero-padded — and calls `emit` after each.
template <typename Emit>
void ForEachPageImage(const SegmentStore::BuildInput& input, int s, int c,
                      std::vector<std::byte>* page, Emit emit) {
  const ColumnSource& column = input.columns[static_cast<std::size_t>(c)];
  const auto width = static_cast<std::int64_t>(column.width);
  // Prefix columns index the same global positions as row columns, so
  // every column of this shard starts at the shard's first global row.
  const auto* src = static_cast<const std::byte*>(column.data) +
                    input.shard_row_begin[static_cast<std::size_t>(s)] * width;
  for (std::int64_t remaining = ValueCount(input, s, c); remaining > 0;) {
    const std::int64_t n = std::min(remaining, input.tuples_per_page);
    std::memset(page->data(), 0, page->size());
    std::memcpy(page->data(), src, static_cast<std::size_t>(n * width));
    emit();
    src += n * width;
    remaining -= n;
  }
}

}  // namespace

std::vector<std::byte> SegmentStore::BuildHeader(const BuildInput& input,
                                                 int s) {
  const int cols = ColumnCount(input);
  const auto& frags = input.shard_fragments[static_cast<std::size_t>(s)];
  const ShardGeometry g = GeometryOf(input, s);

  std::vector<std::byte> h;
  h.reserve(static_cast<std::size_t>(g.header_pages * input.page_size));
  Append(&h, kMagic, sizeof kMagic);
  AppendU32(&h, kVersion);
  AppendU32(&h, kEndianTag);
  AppendU64(&h, input.schema_hash);
  AppendI64(&h, input.page_size);
  AppendI64(&h, input.tuples_per_page);
  AppendI32(&h, s);
  AppendI32(&h, static_cast<std::int32_t>(input.shard_row_begin.size()) - 1);
  AppendI64(&h, input.shard_row_begin[static_cast<std::size_t>(s)]);
  AppendI64(&h, input.shard_row_begin[static_cast<std::size_t>(s) + 1] -
                    input.shard_row_begin[static_cast<std::size_t>(s)]);
  AppendI32(&h, input.num_dims);
  AppendU32(&h, input.has_summaries ? kFlagHasSummaries : 0u);
  AppendI64(&h, static_cast<std::int64_t>(frags.size()));
  AppendI64(&h, static_cast<std::int64_t>(cols));
  AppendI64(&h, g.header_pages);
  AppendI64(&h, g.checksum_pages);
  AppendI64(&h, g.data_pages);
  MDW_CHECK(static_cast<std::int64_t>(h.size()) == kFixedHeaderBytes,
            "segment header layout drifted from kFixedHeaderBytes");

  std::int64_t next_page = g.header_pages + g.checksum_pages;
  for (int c = 0; c < cols; ++c) {
    const std::int64_t values = ValueCount(input, s, c);
    AppendI64(&h, next_page);
    AppendI64(&h, values);
    AppendI64(&h, input.columns[static_cast<std::size_t>(c)].width);
    next_page += CeilDiv(values, input.tuples_per_page);
  }
  for (const FragEntry& f : frags) {
    AppendI64(&h, f.frag_id);
    AppendI64(&h, f.begin);
    AppendI64(&h, f.end);
  }
  h.resize(static_cast<std::size_t>(g.header_pages * input.page_size));
  return h;
}

bool SegmentStore::ValidateExisting(const std::string& path,
                                    const std::vector<std::byte>& header,
                                    std::int64_t expected_bytes,
                                    std::string* why) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    why->clear();  // no prior file: not an error, just nothing to reuse
    return false;
  }
  // Probe magic + version before anything size-shaped: a v1 segment is
  // smaller than its v2 rewrite, and "stale format version" is the
  // actionable message, not "unexpected size".
  std::byte prefix[kPrefixProbeBytes];
  if (!PreadExact(fd, prefix, kPrefixProbeBytes, 0, path, why)) {
    ::close(fd);
    return false;
  }
  if (std::memcmp(prefix, kMagic, sizeof kMagic) != 0) {
    ::close(fd);
    *why = "existing file " + path + " is not a segment (bad magic)";
    return false;
  }
  std::uint32_t version = 0;
  std::memcpy(&version, prefix + kVersionOffset, sizeof version);
  if (version != kVersion) {
    ::close(fd);
    *why = "existing segment " + path + " format version " +
           std::to_string(version) + " is stale (current is " +
           std::to_string(kVersion) + "); rewriting";
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    *why = "cannot stat existing segment " + path;
    return false;
  }
  if (static_cast<std::int64_t>(st.st_size) != expected_bytes) {
    ::close(fd);
    *why = "existing segment " + path + " has unexpected size";
    return false;
  }
  std::vector<std::byte> got(header.size());
  if (!PreadExact(fd, got.data(), static_cast<std::int64_t>(got.size()), 0,
                  path, why)) {
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (std::memcmp(got.data(), header.data(), header.size()) != 0) {
    *why = "existing segment " + path +
           " header does not match this dataset (corrupt or stale)";
    return false;
  }
  return true;
}

void SegmentStore::WriteSegment(const BuildInput& input, int s,
                                const std::vector<std::byte>& header,
                                const std::string& path) {
  const ShardGeometry g = GeometryOf(input, s);
  const int cols = ColumnCount(input);
  std::vector<std::byte> page(static_cast<std::size_t>(page_size_));

  // Pass 1: materialise each data page image (values + zero padding) to
  // compute its CRC-32C; the checksum block precedes the data on disk,
  // so knowing every CRC up front keeps the write purely sequential.
  std::vector<std::uint32_t> crcs;
  crcs.reserve(static_cast<std::size_t>(g.data_pages));
  for (int c = 0; c < cols; ++c) {
    ForEachPageImage(input, s, c, &page, [&] {
      crcs.push_back(Crc32c(page.data(), page.size()));
    });
  }
  MDW_CHECK(static_cast<std::int64_t>(crcs.size()) == g.data_pages,
            "checksum count drifted from the data page count");

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  MDW_CHECK(fd >= 0, "cannot create segment file");
  WriteAll(fd, header.data(), static_cast<std::int64_t>(header.size()),
           "cannot write segment header");

  std::vector<std::byte> checksum_block(
      static_cast<std::size_t>(g.checksum_pages * page_size_));
  std::memcpy(checksum_block.data(), crcs.data(),
              crcs.size() * sizeof(std::uint32_t));
  WriteAll(fd, checksum_block.data(),
           static_cast<std::int64_t>(checksum_block.size()),
           "cannot write segment checksum block");

  // Pass 2: the data pages themselves, same image construction.
  for (int c = 0; c < cols; ++c) {
    ForEachPageImage(input, s, c, &page, [&] {
      WriteAll(fd, page.data(), page_size_, "cannot write segment page");
    });
  }

  // Crash durability: the bytes reach stable storage before the rename
  // publishes them, and the rename itself reaches the directory before
  // the constructor returns. A crash anywhere leaves either the old
  // segment or the new one — never a half-written file under the real
  // name.
  MDW_CHECK(::fsync(fd) == 0, "cannot fsync segment file");
  MDW_CHECK(::close(fd) == 0, "cannot close segment file");
  MDW_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot move segment file into place");
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  MDW_CHECK(dfd >= 0, "cannot open segment directory for fsync");
  MDW_CHECK(::fsync(dfd) == 0, "cannot fsync segment directory");
  MDW_CHECK(::close(dfd) == 0, "cannot close segment directory");
}

void SegmentStore::LoadChecksums(int s, const std::string& path,
                                 PageFile* file) const {
  const ShardDir& dir = dirs_[static_cast<std::size_t>(s)];
  std::vector<std::uint32_t> checksums(
      static_cast<std::size_t>(dir.data_pages));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  MDW_CHECK(fd >= 0, "cannot open segment file for its checksum block");
  std::string why;
  const bool ok = PreadExact(
      fd, reinterpret_cast<std::byte*>(checksums.data()),
      dir.data_pages * static_cast<std::int64_t>(sizeof(std::uint32_t)),
      dir.header_pages * page_size_, path, &why);
  ::close(fd);
  MDW_CHECK(ok, "cannot read segment checksum block");
  file->AttachChecksums(dir.header_pages + dir.checksum_pages,
                        std::move(checksums));
}

SegmentStore::SegmentStore(const StoreOptions& options,
                           const BuildInput& input)
    : page_size_(input.page_size),
      tuples_per_page_(input.tuples_per_page),
      num_columns_(ColumnCount(input)),
      has_summaries_(input.has_summaries),
      prefetch_(options.prefetch),
      root_(options.path),
      shard_row_begin_(input.shard_row_begin) {
  MDW_CHECK(!root_.empty(), "segment store needs a path");
  MDW_CHECK(shard_row_begin_.size() >= 2, "store needs at least one shard");
  const int num_shards = static_cast<int>(shard_row_begin_.size()) - 1;
  MDW_CHECK(static_cast<int>(input.shard_fragments.size()) == num_shards,
            "fragment directory does not cover every shard");
  MDW_CHECK(static_cast<int>(input.columns.size()) == num_columns_,
            "column list does not match the declared layout");
  for (const ColumnSource& column : input.columns) {
    MDW_CHECK(column.width == 2 || column.width == 4 || column.width == 8,
              "column width must be 2, 4 or 8 bytes");
    MDW_CHECK(tuples_per_page_ >= 1 &&
                  tuples_per_page_ * column.width <= page_size_,
              "page geometry cannot hold its tuples");
    col_width_.push_back(column.width);
  }

  if (options.fault_plan.enabled()) {
    injector_ = std::make_unique<FaultInjector>(options.fault_plan);
  }

  dirs_.resize(static_cast<std::size_t>(num_shards));
  files_.resize(static_cast<std::size_t>(num_shards));
  bool all_reused = true;
  for (int s = 0; s < num_shards; ++s) {
    // Read-side directory (independent of whether the file is rewritten).
    ShardDir& dir = dirs_[static_cast<std::size_t>(s)];
    const ShardGeometry g = GeometryOf(input, s);
    dir.header_pages = g.header_pages;
    dir.checksum_pages = g.checksum_pages;
    dir.data_pages = g.data_pages;
    std::int64_t next_page = g.header_pages + g.checksum_pages;
    for (int c = 0; c < num_columns_; ++c) {
      const std::int64_t values = ValueCount(input, s, c);
      dir.col_first_page.push_back(next_page);
      dir.col_value_count.push_back(values);
      next_page += CeilDiv(values, tuples_per_page_);
    }
    dir.total_pages = next_page;
    MDW_CHECK(dir.total_pages ==
                  g.header_pages + g.checksum_pages + g.data_pages,
              "segment directory drifted from its geometry");

    const std::vector<std::byte> header = BuildHeader(input, s);
    char shard_dir[32];
    std::snprintf(shard_dir, sizeof shard_dir, "shard-%04d", s);
    const std::filesystem::path dir_path =
        std::filesystem::path(root_) / shard_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir_path, ec);
    MDW_CHECK(!ec, "cannot create segment store directory");
    const std::string path = (dir_path / "segment.mdwseg").string();

    std::string why;
    const bool reuse =
        options.reuse_existing &&
        ValidateExisting(path, header, dir.total_pages * page_size_, &why);
    if (!reuse) {
      all_reused = false;
      if (!why.empty() && validation_error_.empty()) validation_error_ = why;
      WriteSegment(input, s, header, path);
    }
    std::unique_ptr<PageFile> file = PageFile::Open(
        options.backend, path, page_size_, static_cast<std::uint32_t>(s));
    MDW_CHECK(file->page_count() == dir.total_pages,
              "segment file page count does not match its directory");
    if (injector_ != nullptr) file = injector_->Wrap(std::move(file));
    // Checksums attach to the OUTERMOST file — the one the pool pins —
    // so injected corruption lands before verification and is caught.
    LoadChecksums(s, path, file.get());
    files_[static_cast<std::size_t>(s)] = std::move(file);
  }
  reused_ = all_reused;
  pool_ = std::make_unique<BufferPool>(options.pool_pages, page_size_,
                                       options.retry);
}

std::string SegmentStore::SegmentPath(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards(), "shard out of range");
  return files_[static_cast<std::size_t>(s)]->path();
}

std::int64_t SegmentStore::SegmentPages(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards(), "shard out of range");
  return dirs_[static_cast<std::size_t>(s)].total_pages;
}

std::int64_t SegmentStore::ChecksumPages(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards(), "shard out of range");
  return dirs_[static_cast<std::size_t>(s)].checksum_pages;
}

std::int64_t SegmentStore::FirstDataPage(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards(), "shard out of range");
  const ShardDir& dir = dirs_[static_cast<std::size_t>(s)];
  return dir.header_pages + dir.checksum_pages;
}

int SegmentStore::ShardOf(std::int64_t i) const {
  MDW_CHECK(i >= 0 && i <= shard_row_begin_.back(),
            "global row index out of range");
  const auto it = std::upper_bound(shard_row_begin_.begin(),
                                   shard_row_begin_.end(), i);
  const auto idx =
      static_cast<int>(it - shard_row_begin_.begin()) - 1;
  return std::min(idx, num_shards() - 1);
}

void SegmentStore::Cursor::Fault(std::int64_t i) {
  // Stand-in block of a failed cursor: one zero (of any width) at `i`.
  static constexpr std::int64_t kZero = 0;
  const auto zero_block = [&] {
    span_ = &kZero;
    span_begin_ = i;
    span_end_ = i + 1;
  };
  if (!status_.ok()) return zero_block();
  const SegmentStore& st = *store_;
  const int s = st.ShardOf(i);
  const ShardDir& dir = st.dirs_[static_cast<std::size_t>(s)];
  const std::int64_t begin =
      st.shard_row_begin_[static_cast<std::size_t>(s)];
  const std::int64_t local = i - begin;
  const std::int64_t values =
      dir.col_value_count[static_cast<std::size_t>(column_)];
  MDW_CHECK(local >= 0 && local < values, "column index out of range");
  const std::int64_t page_in_col = local / st.tuples_per_page_;
  const std::int64_t file_page =
      dir.col_first_page[static_cast<std::size_t>(column_)] + page_in_col;

  BufferPool::PinIo pin_io;
  StatusOr<BufferPool::PageRef> ref =
      st.pool_->Pin(*st.files_[static_cast<std::size_t>(s)], file_page,
                    &pin_io, cancel_);
  if (io_ != nullptr) {
    io_->io_errors += pin_io.io_errors;
    io_->io_retries += pin_io.io_retries;
    io_->checksum_failures += pin_io.checksum_failures;
  }
  if (!ref.ok()) {
    // Latch the error; from here every Fetch() answers 0 without
    // touching the pool, and the caller discards the aggregate via
    // status().
    status_ = ref.status();
    page_.reset();
    return zero_block();
  }
  if (io_ != nullptr) {
    if (ref->hit()) {
      ++io_->buffer_hits;
    } else {
      ++io_->pages_read;
      io_->bytes_read += st.page_size_;
    }
  }
  span_ = ref->data();
  span_begin_ = begin + page_in_col * st.tuples_per_page_;
  span_end_ =
      begin + std::min(page_in_col * st.tuples_per_page_ + st.tuples_per_page_,
                       values);
  page_ = std::make_unique<BufferPool::PageRef>(std::move(ref).value());
}

void SegmentStore::Cursor::PrefetchRun(std::int64_t begin, std::int64_t end) {
  const SegmentStore& st = *store_;
  if (!st.prefetch_ || begin >= end || !status_.ok()) return;
  std::int64_t i = begin;
  while (i < end) {
    const int s = st.ShardOf(i);
    const ShardDir& dir = st.dirs_[static_cast<std::size_t>(s)];
    const std::int64_t base =
        st.shard_row_begin_[static_cast<std::size_t>(s)];
    const std::int64_t values =
        dir.col_value_count[static_cast<std::size_t>(column_)];
    const std::int64_t run_end = std::min(end, base + values);
    if (run_end > i) {
      const std::int64_t first_page = (i - base) / st.tuples_per_page_;
      const std::int64_t last_page = (run_end - 1 - base) / st.tuples_per_page_;
      BufferPool::PinIo pin_io;
      const std::int64_t fetched = st.pool_->Prefetch(
          *st.files_[static_cast<std::size_t>(s)],
          dir.col_first_page[static_cast<std::size_t>(column_)] + first_page,
          last_page - first_page + 1, &pin_io);
      if (io_ != nullptr) {
        io_->pages_read += fetched;
        io_->bytes_read += fetched * st.page_size_;
        io_->io_errors += pin_io.io_errors;
        io_->io_retries += pin_io.io_retries;
        io_->checksum_failures += pin_io.checksum_failures;
      }
    }
    // Advance past this shard's slice of the run (guaranteed progress
    // even over empty shards).
    i = std::max(base + values, i + 1);
  }
}

}  // namespace mdw::storage
