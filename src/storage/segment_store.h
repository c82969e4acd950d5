#ifndef MDW_STORAGE_SEGMENT_STORE_H_
#define MDW_STORAGE_SEGMENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/io_fault.h"
#include "storage/page_file.h"

namespace mdw::storage {

/// How a file-backed warehouse finds and sizes its persistent store.
struct StoreOptions {
  /// Root directory of the store; one subdirectory per shard ("disk").
  std::string path;
  /// Buffer-pool capacity in pages, shared by all shard segments.
  std::int64_t pool_pages = 4096;
  IoBackend backend = IoBackend::kPread;
  /// Read ahead over coalesced scan runs (best-effort).
  bool prefetch = true;
  /// Reuse an existing segment whose header matches exactly; any
  /// mismatch (corruption, truncation, stale format version, different
  /// dataset) rewrites it.
  bool reuse_existing = true;
  /// How the buffer pool retries failed page loads before surfacing a
  /// typed error to the query.
  StorageRetryPolicy retry;
  /// Deterministic fault injection over every post-construction page
  /// read (the chaos-test substrate); disabled by default. Segment
  /// writes, header validation, and the checksum-block load are never
  /// injected — construction-time invariants stay fatal.
  FaultPlan fault_plan;
};

/// FNV-1a accumulator for the schema hash stamped into segment headers:
/// the warehouse folds in everything that determines the bytes of the
/// clustered store (schema parameters, seed, clustering attributes,
/// shard count, allocation, row count), so a stale segment from any
/// other configuration fails validation and is rewritten.
struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ull;

  void Bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  }
  void I64(std::int64_t v) { Bytes(&v, sizeof v); }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
};

/// A contiguous run of one column's values of type T: global rows
/// [begin, end), row r at data[r - begin]. Column readers hand these out
/// so kernels keep the block in locals and refetch only past its end.
template <typename T>
struct ColumnBlock {
  const T* data = nullptr;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// One in-memory column as the segment writer and the resident readers
/// see it: `size` values of `width` bytes each (2, 4 or 8), starting at
/// global row 0.
struct ColumnSource {
  const void* data = nullptr;
  int width = 0;
  std::int64_t size = 0;

  template <typename T>
  static ColumnSource Of(const std::vector<T>& values) {
    return {values.data(), static_cast<int>(sizeof(T)),
            static_cast<std::int64_t>(values.size())};
  }
  /// The whole column as one block of T; T must have the column's width.
  template <typename T>
  ColumnBlock<T> Block() const {
    MDW_CHECK(width == static_cast<int>(sizeof(T)),
              "column read at a width other than its own");
    return {static_cast<const T*>(data), 0, size};
  }
};

/// The page-aligned on-disk form of one clustered, sharded warehouse:
/// per shard a directory `shard-NNNN/` holding `segment.mdwseg` — a
/// little-endian header (magic, version, schema hash, geometry, column
/// and fragment directories), a checksum block (one CRC-32C per data
/// page, page-padded), then the shard's columns, each column stored
/// page-aligned with `tuples_per_page` values per page (the same page
/// geometry PagedLayout and the paper's I/O-class math count, so page
/// boundaries line up with the logical page model).
///
/// Format v3 (current): pages are [header | checksums | data], and each
/// column-directory entry records the column's value width, so a column
/// is stored at its natural width — 2-byte leaf keys, 4-byte measures,
/// 8-byte prefix sums — with the page's tail zero-padded. Every data
/// page's CRC-32C (computed over the full page image, padding included)
/// is stored in the checksum block and verified by the buffer pool each
/// time the page is faulted in, so at-rest or in-flight corruption
/// surfaces as a typed kCorruption error instead of silently wrong
/// aggregates. Files of an older version (v1: no checksum block, v2: all
/// columns 8 bytes wide) fail validation with a "stale format version"
/// message and are transparently rewritten.
///
/// Column order: the `num_dims` dimension leaf columns, units_sold,
/// dollar_sales_cents, then — when summaries are enabled — the two
/// measure prefix-sum columns. A prefix column of a shard with R rows
/// holds R + 1 values: the global inclusive prefix P[B..E] sliced at
/// the shard's row region [B, E), so a covered run [b, e) inside the
/// shard folds as P[e] - P[b] from at most two pages.
///
/// Construction writes each shard's segment crash-durably (write to
/// temp, fsync the temp file, rename into place, fsync the parent
/// directory), or reuses a byte-identical existing one (see
/// StoreOptions), then opens every segment behind one shared
/// BufferPool. All row addressing on the read side is in *global*
/// clustered row indices; the store maps them to (shard, local page,
/// offset) internally.
class SegmentStore {
 public:
  /// One fragment's local row range inside its shard's segment.
  struct FragEntry {
    std::int64_t frag_id;
    std::int64_t begin;  ///< shard-local row index
    std::int64_t end;
  };

  /// Everything the writer needs from the clustered warehouse. Column
  /// sources address the *global* clustered vectors; the store slices
  /// each shard's region itself.
  struct BuildInput {
    std::int64_t page_size;
    std::int64_t tuples_per_page;
    std::uint64_t schema_hash;
    int num_dims;
    bool has_summaries;
    /// Global row region of each shard; size num_shards + 1.
    std::vector<std::int64_t> shard_row_begin;
    /// Per shard, its fragments' local row ranges, ascending.
    std::vector<std::vector<FragEntry>> shard_fragments;
    /// Global columns in on-disk order: dims..., units, dollars, then
    /// (iff has_summaries) units_prefix, dollars_prefix. The prefix
    /// columns hold total_rows + 1 values.
    std::vector<ColumnSource> columns;
  };

  SegmentStore(const StoreOptions& options, const BuildInput& input);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// True iff every shard's existing segment file validated and was
  /// reused as-is (no shard was written).
  bool reused() const { return reused_; }
  /// Why the first non-reusable existing segment was rejected (header
  /// mismatch, truncation, short file, stale format version, ...);
  /// empty when reused() or when no prior file existed.
  const std::string& validation_error() const { return validation_error_; }

  BufferPool& pool() { return *pool_; }
  const BufferPool& pool() const { return *pool_; }

  /// The fault injector driving this store's FaultPlan, or nullptr when
  /// injection is disabled. Exposes injection totals for tests.
  const FaultInjector* fault_injector() const { return injector_.get(); }

  std::int64_t page_size() const { return page_size_; }
  std::int64_t tuples_per_page() const { return tuples_per_page_; }
  int num_shards() const { return static_cast<int>(files_.size()); }
  std::int64_t row_count() const { return shard_row_begin_.back(); }
  int num_columns() const { return num_columns_; }
  /// Bytes per value of column `c`, as recorded in the segment header.
  int column_width(int c) const {
    return col_width_[static_cast<std::size_t>(c)];
  }
  bool has_summaries() const { return has_summaries_; }

  /// Path of shard `s`'s segment file (for tests and tooling).
  std::string SegmentPath(int s) const;
  /// Pages in shard `s`'s segment file, header and checksum block
  /// included.
  std::int64_t SegmentPages(int s) const;
  /// Pages of shard `s`'s checksum block (between header and data).
  std::int64_t ChecksumPages(int s) const;
  /// First data page of shard `s` (== header pages + checksum pages).
  std::int64_t FirstDataPage(int s) const;

  /// I/O a reader attributed to one execution slice. `pages_read`
  /// counts pages faulted from disk (demand misses plus pages this
  /// reader prefetched); `buffer_hits` counts pins served from cache
  /// (prefetched pages pin as hits). Summed over a query's cursors,
  /// these match the pool's own counter deltas. The failure counters
  /// mirror BufferPool::PinIo: failed read attempts, retry attempts
  /// issued, and checksum verification failures this slice observed.
  struct IoCounters {
    std::int64_t pages_read = 0;
    std::int64_t buffer_hits = 0;
    std::int64_t bytes_read = 0;
    std::int64_t io_errors = 0;
    std::int64_t io_retries = 0;
    std::int64_t checksum_failures = 0;
  };

  /// A read cursor over one column (by on-disk column index), addressed
  /// by global clustered row index; its blocks are pinned pages, and it
  /// keeps the current one pinned so sequential access costs one pool
  /// pin per page. The cursor itself is untyped: Fetch<T> views the page
  /// as values of T, which must have the column's width (ColumnReader<T>
  /// checks that once, at construction). Cheap to construct (per scan
  /// chunk); NOT thread-safe — use one cursor per thread, and a non-null
  /// `io` must not be shared across concurrently-used cursors.
  ///
  /// Failure semantics: when a pin fails (after the pool's retries) the
  /// cursor latches the error in status() and every subsequent Fetch()
  /// answers a one-value block holding 0 without touching the pool
  /// again — the caller's kernel runs to completion on zeros, and the
  /// execution layer discards the poisoned aggregate because status() is
  /// not ok. This keeps the hot path branch-free on the happy path (one
  /// status check per page fault, none per row).
  class Cursor {
   public:
    Cursor(const SegmentStore* store, int column, IoCounters* io,
           CancellationToken cancel = {})
        : store_(store), column_(column), io_(io),
          cancel_(std::move(cancel)) {}

    /// Bytes per value of this cursor's column.
    int width() const { return store_->column_width(column_); }

    /// The page-sized block holding global index `i`, clipped to its
    /// shard. For prefix columns `i` ranges over [0, row_count()]; for
    /// all others [0, row_count()). The block stays valid until the next
    /// Fetch() outside it.
    template <typename T>
    ColumnBlock<T> Fetch(std::int64_t i) {
      if (i < span_begin_ || i >= span_end_) Fault(i);
      return {static_cast<const T*>(span_), span_begin_, span_end_};
    }

    /// Best-effort read-ahead of the pages backing global rows
    /// [begin, end) of this column; no-op when the store disables
    /// prefetch. Faulted pages count into `io` as pages_read.
    void PrefetchRun(std::int64_t begin, std::int64_t end);

    /// First error any page fault of this cursor hit; ok while every
    /// read succeeded. Once failed, Fetch() answers 0 for every index.
    const Status& status() const { return status_; }

    /// Unpins the current page and clears a latched error: the cursor
    /// reads on exactly as if freshly constructed.
    void Restart() {
      page_.reset();
      span_ = nullptr;
      span_begin_ = span_end_ = 0;
      status_ = Status();
    }

   private:
    /// Points the span at the page holding `i` (or, once failed, at a
    /// one-value zero block at `i`).
    void Fault(std::int64_t i);

    const SegmentStore* store_;
    int column_;
    IoCounters* io_;
    CancellationToken cancel_;  ///< caps pin retry budgets; unarmed = free
    Status status_;
    /// Global index span of the currently-pinned page ([begin, end)),
    /// empty initially.
    std::int64_t span_begin_ = 0;
    std::int64_t span_end_ = 0;
    const void* span_ = nullptr;
    std::unique_ptr<BufferPool::PageRef> page_;
  };

  Cursor MakeCursor(int column, IoCounters* io,
                    CancellationToken cancel = {}) const {
    return Cursor(this, column, io, std::move(cancel));
  }

 private:
  /// Per-shard read-side directory derived from the build input.
  struct ShardDir {
    std::vector<std::int64_t> col_first_page;  ///< per column
    std::vector<std::int64_t> col_value_count;
    std::int64_t header_pages = 0;
    std::int64_t checksum_pages = 0;
    std::int64_t data_pages = 0;
    std::int64_t total_pages = 0;  ///< header + checksums + data
  };

  /// Serialises the exact header bytes (padded to whole pages) for
  /// shard `s` under `input`.
  static std::vector<std::byte> BuildHeader(const BuildInput& input, int s);
  /// True iff the file at `path` exists and is byte-identical to
  /// `header` over the header region with the expected total size;
  /// fills `why` otherwise (empty when the file simply doesn't exist).
  /// A wrong magic or a non-current format version is reported
  /// explicitly (that is how v1 segments are detected as stale).
  static bool ValidateExisting(const std::string& path,
                               const std::vector<std::byte>& header,
                               std::int64_t expected_bytes, std::string* why);
  void WriteSegment(const BuildInput& input, int s,
                    const std::vector<std::byte>& header,
                    const std::string& path);
  /// Reads shard `s`'s checksum block (construction-time, raw pread —
  /// fatal on failure) and attaches it to `file` for pin-time
  /// verification.
  void LoadChecksums(int s, const std::string& path, PageFile* file) const;

  /// Shard whose region covers global index `i` (prefix-column
  /// addressing included: i == row_count() maps to the last shard).
  int ShardOf(std::int64_t i) const;

  std::int64_t page_size_;
  std::int64_t tuples_per_page_;
  int num_columns_;
  std::vector<int> col_width_;  ///< bytes per value, by column
  bool has_summaries_;
  bool prefetch_;
  std::string root_;
  std::vector<std::int64_t> shard_row_begin_;
  std::vector<ShardDir> dirs_;
  std::vector<std::unique_ptr<PageFile>> files_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<BufferPool> pool_;
  bool reused_ = false;
  std::string validation_error_;
};

}  // namespace mdw::storage

#endif  // MDW_STORAGE_SEGMENT_STORE_H_
