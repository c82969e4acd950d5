#include "core/mini_warehouse.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mdw {

namespace {

/// Minimum rows per parallel task: below this, task overhead dominates.
constexpr std::int64_t kMinChunkRows = 4096;

/// Chunk grain for `total` rows over `lanes` parallel lanes: a few chunks
/// per lane for dynamic load balancing (and for cross-shard stealing);
/// never smaller than kMinChunkRows.
std::int64_t ChunkGrain(std::int64_t total, int lanes) {
  const std::int64_t target_chunks = std::max<std::int64_t>(1, lanes) * 4;
  return std::max(kMinChunkRows, (total + target_chunks - 1) / target_chunks);
}

/// Cuts disjoint ascending `ranges` into chunks of roughly `grain` rows,
/// appending to `chunks`.
void CutRanges(const std::vector<RowRange>& ranges, std::int64_t grain,
               std::vector<RowRange>* chunks) {
  for (const auto& r : ranges) {
    for (std::int64_t b = r.begin; b < r.end; b += grain) {
      chunks->push_back({b, std::min(b + grain, r.end)});
    }
  }
}

/// Adds p's scan-side partial (scanned rows, I/O, and aggregate) into
/// exec.
void MergeScanPartial(const MiniWarehouse::MdhfExecution& p,
                      MiniWarehouse::MdhfExecution* exec) {
  exec->rows_scanned += p.rows_scanned;
  exec->pages_read += p.pages_read;
  exec->buffer_hits += p.buffer_hits;
  exec->bytes_read += p.bytes_read;
  exec->io_errors += p.io_errors;
  exec->io_retries += p.io_retries;
  exec->checksum_failures += p.checksum_failures;
  // First-error-wins over the fixed merge order, so the surfaced error
  // is deterministic at any worker count.
  exec->status.Update(p.status);
  exec->result.rows += p.result.rows;
  exec->result.units_sold += p.result.units_sold;
  exec->result.dollar_sales_cents += p.result.dollar_sales_cents;
}

/// Adds one cursor set's I/O attribution into a partial execution
/// record (cursor *statuses* are folded separately — they live on the
/// cursors, not the counters).
void FoldIo(const storage::SegmentStore::IoCounters& io,
            MiniWarehouse::MdhfExecution* partial) {
  partial->pages_read += io.pages_read;
  partial->buffer_hits += io.buffer_hits;
  partial->bytes_read += io.bytes_read;
  partial->io_errors += io.io_errors;
  partial->io_retries += io.io_retries;
  partial->checksum_failures += io.checksum_failures;
}

/// Exact division of a leaf key by a fixed group width d in
/// [1, kMaxLeafCardinality] through one multiply instead of a divide: for
/// n < 2^16, n / d == (n * m) >> 32 with m = floor(2^32 / d) + 1, because
/// the rounding error n * (m - 2^32 / d) / 2^32 stays below 1 / d whenever
/// n * d < 2^32.
class KeyDivider {
 public:
  explicit KeyDivider(std::int64_t d)
      : m_((std::uint64_t{1} << 32) / static_cast<std::uint64_t>(d) + 1) {}
  std::int64_t operator()(LeafKey n) const {
    return static_cast<std::int64_t>((std::uint64_t{n} * m_) >> 32);
  }

 private:
  std::uint64_t m_;
};

/// The blocks one scan chunk currently reads, positioned at the first row
/// visited in them: values of rows [row, end) sit at u/d/k[row' - row].
struct ScanBlocks {
  const std::int32_t* u = nullptr;
  const std::int32_t* d = nullptr;
  const LeafKey* k = nullptr;
  std::int64_t end = 0;
};

/// Fetches the measure blocks (and with kGrouped the group-key block)
/// holding `row`, clipped to `limit`. A paged store's measure and
/// dimension columns share one page geometry per shard, so one end
/// serves all of them.
template <bool kGrouped>
ScanBlocks FetchBlocks(storage::ColumnReader<std::int32_t>& units,
                       storage::ColumnReader<std::int32_t>& dollars,
                       storage::ColumnReader<LeafKey>* keys, std::int64_t row,
                       std::int64_t limit) {
  const storage::ColumnBlock<std::int32_t> ub = units.Fetch(row);
  const storage::ColumnBlock<std::int32_t> db = dollars.Fetch(row);
  ScanBlocks b;
  b.u = ub.data + (row - ub.begin);
  b.d = db.data + (row - db.begin);
  b.end = std::min({ub.end, db.end, limit});
  if constexpr (kGrouped) {
    const storage::ColumnBlock<LeafKey> kb = keys->Fetch(row);
    b.k = kb.data + (row - kb.begin);
    b.end = std::min(b.end, kb.end);
  }
  return b;
}

/// A scan chunk's running aggregate.
struct ScanSums {
  std::int64_t rows = 0;
  std::int64_t units = 0;
  std::int64_t dollars = 0;
};

/// Tallies the hit at offset `i` of blocks `b`; the narrow values widen
/// to int64_t before they add.
template <bool kGrouped>
void TallyHit(const ScanBlocks& b, std::int64_t i, const KeyDivider& group_of,
              MiniWarehouse::GroupAccum* groups, ScanSums& sums) {
  const std::int64_t uv = b.u[i];
  const std::int64_t dv = b.d[i];
  ++sums.rows;
  sums.units += uv;
  sums.dollars += dv;
  if constexpr (kGrouped) groups->Tally(group_of(b.k[i]), uv, dv);
}

/// Tallies the hits of blocks `b` marked in `words` over bits
/// [first, stop) — bit i is the row at offset i - first. Out of line on
/// purpose: inlined into the chunk loop, GCC kept a sum in memory and
/// every hit paid a store-to-load round trip.
template <bool kGrouped>
[[gnu::noinline]] ScanSums TallyMarkedHits(const std::uint64_t* words,
                                           std::int64_t first,
                                           std::int64_t stop,
                                           const ScanBlocks& b,
                                           const KeyDivider& group_of,
                                           MiniWarehouse::GroupAccum* groups) {
  ScanSums sums;
  for (std::int64_t w = first / 64; w * 64 < stop; ++w) {
    std::uint64_t word = words[w];
    if (w == first / 64) word &= ~0ULL << (first % 64);
    if (stop - w * 64 < 64) word &= ~(~0ULL << (stop - w * 64));
    while (word != 0) {
      const std::int64_t i = w * 64 + __builtin_ctzll(word);
      TallyHit<kGrouped>(b, i - first, group_of, groups, sums);
      word &= word - 1;
    }
  }
  return sums;
}

/// The residual-scan kernel: aggregates rows [begin, end) under the
/// accesses' bitmap filters (evaluated over the range only, O(range)),
/// reading the measures (and, when kGrouped, the group dimension's leaf
/// through `keys`) block by block. Rows are visited in ascending order,
/// so each block is fetched once and its hits are tallied in a tight
/// loop over locals — one fetch per chunk for a resident store, one per
/// page for a paged one. kGrouped = false compiles the per-hit group
/// tally away.
template <bool kGrouped, typename Accesses>
void ProcessRows(const IndexSet& indexes, std::int64_t begin,
                 std::int64_t end, const Accesses& accesses,
                 storage::ColumnReader<std::int32_t>& units,
                 storage::ColumnReader<std::int32_t>& dollars,
                 storage::ColumnReader<LeafKey>* keys,
                 const KeyDivider& group_of,
                 MiniWarehouse::GroupAccum* groups,
                 MiniWarehouse::MdhfExecution* partial) {
  partial->rows_scanned += end - begin;
  ScanSums sums;
  if (accesses.empty()) {
    // Q1/Q3 clustered hits: fragment membership IS the filter — every row
    // of the range is a hit.
    for (std::int64_t row = begin; row < end;) {
      const ScanBlocks b =
          FetchBlocks<kGrouped>(units, dollars, keys, row, end);
      for (std::int64_t i = 0; i < b.end - row; ++i) {
        TallyHit<kGrouped>(b, i, group_of, groups, sums);
      }
      row = b.end;
    }
  } else {
    // Bitmap filter over this range only: O(range), never O(table).
    BitVector filter(end - begin);
    filter.SetAll();
    for (const auto& a : accesses) {
      BitVector pred_rows(end - begin);
      for (const auto value : a.pred->values) {
        if (a.same_ancestor) {
          pred_rows |= indexes.SelectWithinFragmentSlice(
              a.pred->dim, a.pred->depth, value, a.frag_depth, begin, end);
        } else {
          pred_rows |= indexes.SelectSlice(a.pred->dim, a.pred->depth, value,
                                           begin, end);
        }
      }
      filter &= pred_rows;
    }
    // Bit i is row begin + i. Each block starts at its first hit.
    for (std::int64_t first = filter.NextSetBit(0); first >= 0;) {
      const ScanBlocks b =
          FetchBlocks<kGrouped>(units, dollars, keys, begin + first, end);
      const std::int64_t stop = b.end - begin;
      const ScanSums block = TallyMarkedHits<kGrouped>(
          filter.words(), first, stop, b, group_of, groups);
      sums.rows += block.rows;
      sums.units += block.units;
      sums.dollars += block.dollars;
      first = filter.NextSetBit(stop);
    }
  }
  partial->result.rows += sums.rows;
  partial->result.units_sold += sums.units;
  partial->result.dollar_sales_cents += sums.dollars;
}

}  // namespace

void MiniWarehouse::GroupAccum::Reset(std::int64_t card) {
  const auto n = static_cast<std::size_t>(card);
  rows.assign(n, 0);
  units.assign(n, 0);
  dollars.assign(n, 0);
  summarized.assign(n, 0);
}

void MiniWarehouse::GroupAccum::Merge(const GroupAccum& other) {
  MDW_CHECK(other.rows.size() == rows.size(),
            "group accumulators cover different key domains");
  for (std::size_t k = 0; k < rows.size(); ++k) {
    rows[k] += other.rows[k];
    units[k] += other.units[k];
    dollars[k] += other.dollars[k];
    summarized[k] += other.summarized[k];
  }
}

std::vector<GroupRow> MiniWarehouse::GroupAccum::Compact() const {
  std::vector<GroupRow> out;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] == 0) continue;
    out.push_back({static_cast<std::int64_t>(k), rows[k], units[k], dollars[k],
                   summarized[k]});
  }
  return out;
}

MiniWarehouse::MiniWarehouse(StarSchema schema, std::uint64_t seed,
                             std::vector<FragAttr> cluster_attrs,
                             bool enable_summaries, int num_shards,
                             AllocationConfig allocation,
                             storage::StoreOptions storage)
    : schema_(std::move(schema)) {
  Populate(seed);
  ClusterByFragment(std::move(cluster_attrs), num_shards, allocation);
  // Indices are built AFTER the permutation: bit r of every bitmap refers
  // to the clustered physical row r, so range-restricted selections line
  // up with the fragment directory.
  indexes_ = std::make_unique<IndexSet>(schema_, facts_);
  if (enable_summaries) {
    // Measure prefix sums in the clustered order, so any coalesced run of
    // fully-covered fragments [b, e) aggregates as P[e] - P[b].
    const auto rows = static_cast<std::size_t>(row_count());
    units_prefix_.assign(rows + 1, 0);
    dollars_prefix_.assign(rows + 1, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      units_prefix_[r + 1] = units_prefix_[r] + units_sold_[r];
      dollars_prefix_[r + 1] = dollars_prefix_[r] + dollar_sales_cents_[r];
    }
    summaries_enabled_ = true;
  }
  // The column table, in column-id order.
  for (const auto& column : facts_.columns) {
    resident_.push_back(storage::ColumnSource::Of(column));
  }
  resident_.push_back(storage::ColumnSource::Of(units_sold_));
  resident_.push_back(storage::ColumnSource::Of(dollar_sales_cents_));
  if (summaries_enabled_) {
    resident_.push_back(storage::ColumnSource::Of(units_prefix_));
    resident_.push_back(storage::ColumnSource::Of(dollars_prefix_));
  }
  if (!storage.path.empty()) BuildPagedStore(seed, storage);
}

const FactColumns& MiniWarehouse::facts() const {
  MDW_CHECK(store_ == nullptr,
            "fact columns are file-backed (dropped from RAM); read them "
            "through the execution paths instead");
  return facts_;
}

void MiniWarehouse::BuildPagedStore(std::uint64_t seed,
                                    const storage::StoreOptions& options) {
  storage::SegmentStore::BuildInput in;
  in.page_size = schema_.physical().page_size_bytes;
  in.tuples_per_page = schema_.physical().TuplesPerPage();
  in.num_dims = schema_.num_dimensions();
  in.has_summaries = summaries_enabled_;
  in.shard_row_begin = shard_row_begin_;

  // The schema hash folds in everything that determines the clustered
  // bytes, so a segment from any other dataset, layout, or allocation
  // fails validation and is rewritten.
  storage::Fnv1a h;
  h.U64(seed);
  h.I64(schema_.num_dimensions());
  const double density = schema_.density();
  h.Bytes(&density, sizeof density);
  for (DimId d = 0; d < schema_.num_dimensions(); ++d) {
    const auto& hier = schema_.dimension(d).hierarchy();
    h.I64(hier.num_levels());
    h.I64(hier.LeafCardinality());
  }
  for (const FragAttr& a : cluster_frag_->attrs()) {
    h.I64(a.dim);
    h.I64(a.depth);
  }
  h.I64(num_shards_);
  // The realised fragment -> shard map captures the allocation policy's
  // entire outcome (round robin, round_gap, cluster_factor, ...).
  for (const int s : shard_of_frag_) h.I64(s);
  h.I64(row_count_);
  h.I64(summaries_enabled_ ? 1 : 0);
  in.schema_hash = h.hash;

  in.shard_fragments.resize(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    const std::int64_t base = shard_row_begin_[static_cast<std::size_t>(s)];
    for (const FragId f : shard_fragments_[static_cast<std::size_t>(s)]) {
      const auto rank =
          static_cast<std::size_t>(frag_rank_[static_cast<std::size_t>(f)]);
      in.shard_fragments[static_cast<std::size_t>(s)].push_back(
          {f, frag_offsets_[rank] - base, frag_offsets_[rank + 1] - base});
    }
  }
  in.columns = resident_;
  store_ = std::make_unique<storage::SegmentStore>(options, in);

  // Drop the in-RAM copies — the segments are the backing truth now. The
  // bitmap indexes (built over the same clustered order) stay resident:
  // only the fact/measure/prefix columns are paged.
  for (auto& column : facts_.columns) {
    column.clear();
    column.shrink_to_fit();
  }
  units_sold_ = {};
  dollar_sales_cents_ = {};
  units_prefix_ = {};
  dollars_prefix_ = {};
  resident_.clear();
}

void MiniWarehouse::Populate(std::uint64_t seed) {
  const std::int64_t max_rows = schema_.MaxFactCount();
  MDW_CHECK(max_rows <= 50'000'000,
            "schema too large to materialise; use the simulator instead");
  const int dims = schema_.num_dimensions();
  for (DimId d = 0; d < dims; ++d) {
    MDW_CHECK(schema_.dimension(d).hierarchy().LeafCardinality() <=
                  kMaxLeafCardinality,
              "leaf cardinality exceeds the 2-byte leaf key; use the "
              "simulator instead");
  }
  facts_.columns.assign(static_cast<std::size_t>(dims), {});

  // Reserve for the expected Binomial(max_rows, density) row count plus
  // four standard deviations (capped at the hard bound max_rows), so
  // population virtually never reallocates.
  const double expected =
      schema_.density() * static_cast<double>(max_rows);
  const double slack =
      4.0 * std::sqrt(expected * std::max(0.0, 1.0 - schema_.density()));
  const auto reserve_rows = static_cast<std::size_t>(std::min<double>(
      static_cast<double>(max_rows), expected + slack + 64.0));
  for (auto& column : facts_.columns) column.reserve(reserve_rows);
  units_sold_.reserve(reserve_rows);
  dollar_sales_cents_.reserve(reserve_rows);

  Rng rng(seed);
  // Enumerate every leaf-value combination (mixed radix over the leaf
  // cardinalities) and admit it with probability density.
  std::vector<std::int64_t> leaf_cards;
  for (DimId d = 0; d < dims; ++d) {
    leaf_cards.push_back(
        schema_.dimension(d).hierarchy().LeafCardinality());
  }
  std::vector<std::int64_t> combo(static_cast<std::size_t>(dims), 0);
  for (std::int64_t i = 0; i < max_rows; ++i) {
    if (rng.UniformReal() < schema_.density()) {
      for (DimId d = 0; d < dims; ++d) {
        facts_.columns[static_cast<std::size_t>(d)].push_back(
            static_cast<LeafKey>(combo[static_cast<std::size_t>(d)]));
      }
      units_sold_.push_back(static_cast<std::int32_t>(rng.Uniform(1, 100)));
      dollar_sales_cents_.push_back(
          static_cast<std::int32_t>(rng.Uniform(100, 100'000)));
    }
    // Advance the odometer.
    for (int d = dims - 1; d >= 0; --d) {
      auto& v = combo[static_cast<std::size_t>(d)];
      if (++v < leaf_cards[static_cast<std::size_t>(d)]) break;
      v = 0;
    }
  }
  // Authoritative from here on: facts_ may be dropped in file-backed
  // mode, but the row count is layout-independent.
  row_count_ = facts_.row_count();
}

void MiniWarehouse::ClusterByFragment(std::vector<FragAttr> cluster_attrs,
                                      int num_shards,
                                      AllocationConfig allocation) {
  MDW_CHECK(num_shards >= 1, "need at least one shard");
  cluster_frag_ =
      std::make_unique<Fragmentation>(&schema_, std::move(cluster_attrs));
  const std::int64_t frag_count = cluster_frag_->FragmentCount();
  const std::int64_t rows = row_count();
  const int dims = schema_.num_dimensions();
  num_shards_ = num_shards;

  // Fragment -> shard through the disk allocation (one "disk" per shard,
  // round robin with the configured round_gap/cluster_factor); the
  // trivial single-shard split skips the allocation machinery entirely.
  shard_of_frag_.assign(static_cast<std::size_t>(frag_count), 0);
  if (num_shards_ > 1) {
    allocation.num_disks = num_shards_;
    shard_alloc_ = std::make_unique<DiskAllocation>(
        cluster_frag_.get(), allocation, /*bitmap_count=*/0);
    for (FragId f = 0; f < frag_count; ++f) {
      shard_of_frag_[static_cast<std::size_t>(f)] =
          shard_alloc_->DiskOfFragment(f);
    }
  }

  // Shard-major fragment order: shard by shard, ascending ids within, so
  // each shard owns one contiguous row region whose fragment ranges are
  // ascending — per-shard directory walks coalesce exactly like the
  // unsharded one did.
  shard_fragments_.assign(static_cast<std::size_t>(num_shards_), {});
  for (FragId f = 0; f < frag_count; ++f) {
    shard_fragments_[static_cast<std::size_t>(
                         shard_of_frag_[static_cast<std::size_t>(f)])]
        .push_back(f);
  }
  frag_rank_.assign(static_cast<std::size_t>(frag_count), 0);
  std::int64_t rank = 0;
  for (const auto& frags : shard_fragments_) {
    for (const FragId f : frags) {
      frag_rank_[static_cast<std::size_t>(f)] = rank++;
    }
  }

  // Each row's fragment is computed exactly once, here; queries never
  // re-derive it. The vector later becomes each row's new position.
  std::vector<std::int64_t> row_rank(static_cast<std::size_t>(rows));
  std::vector<std::int64_t> leaf(static_cast<std::size_t>(dims));
  for (std::int64_t row = 0; row < rows; ++row) {
    for (DimId d = 0; d < dims; ++d) {
      leaf[static_cast<std::size_t>(d)] =
          facts_.columns[static_cast<std::size_t>(d)]
                        [static_cast<std::size_t>(row)];
    }
    row_rank[static_cast<std::size_t>(row)] = frag_rank_[
        static_cast<std::size_t>(cluster_frag_->FragmentOfRow(leaf))];
  }

  // Counting sort into shard-major, fragment-major order (stable:
  // generation order is preserved within a fragment). frag_offsets_ is
  // indexed by rank, not id.
  frag_offsets_.assign(static_cast<std::size_t>(frag_count) + 1, 0);
  for (const std::int64_t r : row_rank) {
    ++frag_offsets_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t f = 1; f < frag_offsets_.size(); ++f) {
    frag_offsets_[f] += frag_offsets_[f - 1];
  }
  std::vector<std::int64_t> cursor(frag_offsets_.begin(),
                                   frag_offsets_.end() - 1);
  // In place: row r's rank is read once, then replaced by its position.
  std::vector<std::int64_t>& new_pos = row_rank;
  for (auto& r : row_rank) r = cursor[static_cast<std::size_t>(r)]++;

  // Shard regions: shard s spans the offsets of its rank interval.
  shard_row_begin_.assign(static_cast<std::size_t>(num_shards_) + 1, 0);
  std::int64_t first_rank = 0;
  for (int s = 0; s < num_shards_; ++s) {
    first_rank +=
        static_cast<std::int64_t>(shard_fragments_[
            static_cast<std::size_t>(s)].size());
    shard_row_begin_[static_cast<std::size_t>(s) + 1] =
        frag_offsets_[static_cast<std::size_t>(first_rank)];
  }

  // Each column is permuted at its own width; only one column's copy is
  // alive at a time.
  const auto permute = [&]<typename T>(std::vector<T>& column) {
    std::vector<T> permuted(static_cast<std::size_t>(rows));
    for (std::int64_t row = 0; row < rows; ++row) {
      permuted[static_cast<std::size_t>(
          new_pos[static_cast<std::size_t>(row)])] =
          column[static_cast<std::size_t>(row)];
    }
    column = std::move(permuted);
  };
  for (auto& column : facts_.columns) permute(column);
  permute(units_sold_);
  permute(dollar_sales_cents_);
}

bool MiniWarehouse::ClusteredFor(const Fragmentation& fragmentation) const {
  return &fragmentation.schema() == &schema_ &&
         fragmentation.attrs() == cluster_frag_->attrs();
}

std::pair<std::int64_t, std::int64_t> MiniWarehouse::FragmentRows(
    FragId id) const {
  MDW_CHECK(id >= 0 && id < cluster_frag_->FragmentCount(),
            "fragment id out of range");
  const auto rank =
      static_cast<std::size_t>(frag_rank_[static_cast<std::size_t>(id)]);
  return {frag_offsets_[rank], frag_offsets_[rank + 1]};
}

int MiniWarehouse::ShardOfFragment(FragId id) const {
  MDW_CHECK(id >= 0 && id < cluster_frag_->FragmentCount(),
            "fragment id out of range");
  return shard_of_frag_[static_cast<std::size_t>(id)];
}

std::pair<std::int64_t, std::int64_t> MiniWarehouse::ShardRows(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards_, "shard out of range");
  return {shard_row_begin_[static_cast<std::size_t>(s)],
          shard_row_begin_[static_cast<std::size_t>(s) + 1]};
}

const std::vector<FragId>& MiniWarehouse::ShardFragments(int s) const {
  MDW_CHECK(s >= 0 && s < num_shards_, "shard out of range");
  return shard_fragments_[static_cast<std::size_t>(s)];
}

double MiniWarehouse::MdhfExecution::ShardSkew() const {
  if (shards.empty()) return 0;
  std::int64_t total = 0;
  std::int64_t max = 0;
  for (const auto& w : shards) {
    total += w.BusyWork();
    max = std::max(max, w.BusyWork());
  }
  if (total == 0) return 0;
  // max / mean, with mean = total / num_shards.
  return static_cast<double>(max) * static_cast<double>(shards.size()) /
         static_cast<double>(total);
}

MiniWarehouse::AggregateResult MiniWarehouse::FullScan(
    const StarQuery& query, const GroupBy* group_by,
    GroupAccum* groups) const {
  // One reader per dimension the scan reads, plus the measures.
  std::vector<std::optional<storage::ColumnReader<LeafKey>>> dims(
      static_cast<std::size_t>(schema_.num_dimensions()));
  const auto open = [&](DimId d) {
    auto& reader = dims[static_cast<std::size_t>(d)];
    if (!reader.has_value()) {
      reader.emplace(OpenColumn<LeafKey>(d, nullptr, {}));
    }
  };
  for (const auto& pred : query.predicates()) open(pred.dim);
  std::int64_t leaves_per = 1;
  if (groups != nullptr) {
    open(group_by->dim);
    leaves_per =
        schema_.dimension(group_by->dim).hierarchy().LeavesPer(group_by->depth);
  }
  const auto leaf = [&](DimId d, std::int64_t row) -> std::int64_t {
    return dims[static_cast<std::size_t>(d)]->At(row);
  };
  auto units = OpenColumn<std::int32_t>(ColUnits(), nullptr, {});
  auto dollars = OpenColumn<std::int32_t>(ColDollars(), nullptr, {});

  AggregateResult result;
  for (std::int64_t row = 0; row < row_count(); ++row) {
    bool match = true;
    for (const auto& pred : query.predicates()) {
      const auto& h = schema_.dimension(pred.dim).hierarchy();
      const std::int64_t value =
          h.AncestorOfLeaf(leaf(pred.dim, row), pred.depth);
      if (std::find(pred.values.begin(), pred.values.end(), value) ==
          pred.values.end()) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    const std::int64_t u = units.At(row);
    const std::int64_t d = dollars.At(row);
    ++result.rows;
    result.units_sold += u;
    result.dollar_sales_cents += d;
    if (groups != nullptr) {
      groups->Tally(leaf(group_by->dim, row) / leaves_per, u, d);
    }
  }
  // The reference paths are ground truth, not serving paths: a storage
  // error here means the test substrate itself is broken, so fail fast
  // instead of returning a silently-zeroed baseline.
  for (const auto& reader : dims) {
    MDW_CHECK(!reader.has_value() || reader->status().ok(),
              "reference full scan hit a storage error");
  }
  MDW_CHECK(units.status().ok() && dollars.status().ok(),
            "reference full scan hit a storage error");
  return result;
}

MiniWarehouse::AggregateResult MiniWarehouse::ExecuteFullScan(
    const StarQuery& query) const {
  return FullScan(query, nullptr, nullptr);
}

std::vector<GroupRow> MiniWarehouse::ExecuteFullScanGrouped(
    const StarQuery& query) const {
  MDW_CHECK(query.grouped(), "ExecuteFullScanGrouped needs a GROUP BY");
  const GroupBy gb = *query.group_by();
  MDW_CHECK(gb.dim >= 0 && gb.dim < schema_.num_dimensions(),
            "GROUP BY dimension out of range");
  const auto& gh = schema_.dimension(gb.dim).hierarchy();
  MDW_CHECK(gb.depth >= 0 && gb.depth < gh.num_levels(),
            "GROUP BY level out of range");
  GroupAccum acc;
  acc.Reset(gh.Cardinality(gb.depth));
  FullScan(query, &gb, &acc);
  return acc.Compact();
}

MiniWarehouse::AggregateResult MiniWarehouse::ExecuteWithBitmaps(
    const StarQuery& query) const {
  BitVector hits(row_count());
  hits.SetAll();
  for (const auto& pred : query.predicates()) {
    BitVector pred_rows(row_count());
    for (const auto value : pred.values) {
      pred_rows |= indexes_->Select(pred.dim, pred.depth, value);
    }
    hits &= pred_rows;
  }
  auto units = OpenColumn<std::int32_t>(ColUnits(), nullptr, {});
  auto dollars = OpenColumn<std::int32_t>(ColDollars(), nullptr, {});
  AggregateResult result;
  hits.ForEachSetBit([&](std::int64_t row) {
    ++result.rows;
    result.units_sold += units.At(row);
    result.dollar_sales_cents += dollars.At(row);
  });
  MDW_CHECK(units.status().ok() && dollars.status().ok(),
            "bitmap reference execution hit a storage error");
  return result;
}

MiniWarehouse::MdhfExecution MiniWarehouse::ExecuteWithPlan(
    const StarQuery& query, const QueryPlan& plan, const ThreadPool* pool,
    ExecScratch* scratch, const ExecOptions& options) const {
  MDW_CHECK(!options.covered_only ||
                (summaries_enabled_ &&
                 (!plan.grouped() || plan.AlignedGrouping())),
            "covered-only degradation requires summaries (and "
            "fragmentation-aligned grouping)");
  MdhfExecution exec;
  if (!ClusteredFor(plan.fragmentation())) {
    exec.status = Status::InvalidArgument(
        "plan's fragmentation does not match the warehouse's clustered "
        "layout");
  } else if (options.cancel.ShouldStop()) {
    // Entry checkpoint: a token tripped before execution starts must
    // yield the typed status even when the query would be answered
    // entirely from summaries (the covered path runs no cancellable scan
    // chunks).
    exec.status = options.cancel.CancelStatus();
  } else {
    // Without a caller scratch, the calling thread's own one: a thread
    // runs one execution at a time (pool tasks only scan), so reuse is
    // safe and a closed loop of queries allocates no execution buffers.
    thread_local ExecScratch per_thread;
    ExecScratch& s = scratch != nullptr ? *scratch : per_thread;
    ResolveBitmapAccesses(query, plan, &s.accesses_);
    ExecuteFragments(plan, pool, options, s, &exec);
  }
  exec.query_class = plan.query_class();
  exec.io_class = plan.io_class();
  return exec;
}

void MiniWarehouse::ExecuteFragments(const QueryPlan& plan,
                                     const ThreadPool* pool,
                                     const ExecOptions& options,
                                     ExecScratch& scratch,
                                     MdhfExecution* exec) const {
  GroupContext group;
  GroupAccum* groups = nullptr;
  if (plan.grouped()) {
    group.grouped = true;
    group.dim = plan.group_by()->dim;
    group.leaves_per = plan.group_leaves_per();
    group.card = plan.group_card();
    scratch.groups_.Reset(group.card);
    groups = &scratch.groups_;
  }
  // A summary run's prefix-sum fold cannot split its rows across groups,
  // so grouping below the fragmentation level (or on a non-fragmentation
  // dimension) forces every selected fragment onto the scan path.
  const bool use_summaries =
      summaries_enabled_ && (!group.grouped || plan.AlignedGrouping());

  // Directory walk: the plan's fragment runs are routed to their shards
  // and map to physical row ranges through plain loads from the flat
  // directory tables; within a shard, adjacent selected fragments
  // coalesce into maximal runs (fragment ids arrive in ascending
  // allocation order, and the shard's layout is fragment-major, so
  // per-shard ranges are ascending and disjoint). Fully-covered fragments
  // split off into summary runs answered from the prefix sums; residual
  // fragments keep the range-scan + bitmap path. A one-fragment plan is
  // simply a one-run walk.
  std::vector<ShardSelection>& selections = scratch.selections_;
  selections.resize(static_cast<std::size_t>(num_shards_));
  for (ShardSelection& sel : selections) {
    sel.scan.clear();
    sel.summary.clear();
    sel.summary_group.clear();
    sel.fragments = 0;
    sel.fragments_covered = 0;
  }
  const int* shard_of = shard_of_frag_.data();
  const std::int64_t* rank = frag_rank_.data();
  const std::int64_t* offsets = frag_offsets_.data();
  RouteRuns(
      plan, use_summaries,
      [=](FragId id) {
        const std::int64_t r = rank[id];
        return FragmentPlace{shard_of[id], offsets[r], offsets[r + 1]};
      },
      std::span<ShardSelection>(selections));
  ExecuteSharded(group, pool, options, groups, scratch, exec);
  if (groups != nullptr) exec->groups = groups->Compact();
  exec->degraded = options.covered_only;
  exec->bitmaps_read = plan.BitmapsPerFragment();
  exec->fragments_processed = plan.FragmentCount();
}

void MiniWarehouse::ResolveBitmapAccesses(
    const StarQuery& query, const QueryPlan& plan,
    std::vector<BitmapAccess>* out) const {
  const Fragmentation& fragmentation = plan.fragmentation();
  std::vector<BitmapAccess>& accesses = *out;
  accesses.clear();
  for (const auto& access : plan.accesses()) {
    if (!access.needs_bitmap) continue;
    const Predicate* pred = query.PredicateOn(access.dim);
    MDW_CHECK(pred != nullptr, "plan access without predicate");
    const Depth frag_depth = fragmentation.FragDepthOf(access.dim);
    // Suffix-only evaluation (skipping the prefix bits shared within a
    // fragment) is sound only if every IN-list value lies below the *same*
    // fragmentation-level ancestor; a foreign suffix pattern would
    // otherwise match unrelated rows inside the other selected fragments.
    const auto& h = schema_.dimension(access.dim).hierarchy();
    bool same_ancestor = frag_depth >= 0;
    if (frag_depth >= 0) {
      const std::int64_t first =
          h.Ancestor(pred->values.front(), pred->depth, frag_depth);
      for (const auto value : pred->values) {
        if (h.Ancestor(value, pred->depth, frag_depth) != first) {
          same_ancestor = false;
          break;
        }
      }
    }
    accesses.push_back({pred, frag_depth, same_ancestor});
  }
}

void MiniWarehouse::ScanChunk(std::int64_t begin, std::int64_t end,
                              const std::vector<BitmapAccess>& accesses,
                              const GroupContext& group,
                              const CancellationToken& cancel,
                              MdhfExecution* partial,
                              GroupAccum* groups) const {
  storage::SegmentStore::IoCounters io;
  auto units = OpenColumn<std::int32_t>(ColUnits(), &io, cancel);
  auto dollars = OpenColumn<std::int32_t>(ColDollars(), &io, cancel);
  if (accesses.empty()) {
    // Unfiltered range: every page will be touched, so read ahead in
    // coalesced runs. Filtered scans skip prefetch — they fault only the
    // pages that actually hold hits.
    units.PrefetchRun(begin, end);
    dollars.PrefetchRun(begin, end);
  }
  if (groups == nullptr) {
    ProcessRows<false>(*indexes_, begin, end, accesses, units, dollars,
                       nullptr, KeyDivider(1), nullptr, partial);
  } else {
    // Grouped scans read the group dimension's leaf column through its
    // own reader (its I/O and status fold into the same partial).
    auto keys = OpenColumn<LeafKey>(group.dim, &io, cancel);
    if (accesses.empty()) keys.PrefetchRun(begin, end);
    ProcessRows<true>(*indexes_, begin, end, accesses, units, dollars, &keys,
                      KeyDivider(group.leaves_per), groups, partial);
    partial->status.Update(keys.status());
  }
  FoldIo(io, partial);
  partial->status.Update(units.status());
  partial->status.Update(dollars.status());
}

void MiniWarehouse::FoldSummaryRun(const RowRange& run, SummaryColumns& sums,
                                   MdhfExecution* exec,
                                   std::int64_t group_key,
                                   GroupAccum* groups) const {
  const std::int64_t du = sums.units.At(run.end) - sums.units.At(run.begin);
  const std::int64_t dd =
      sums.dollars.At(run.end) - sums.dollars.At(run.begin);
  exec->result.rows += run.rows();
  exec->rows_summarized += run.rows();
  exec->result.units_sold += du;
  exec->result.dollar_sales_cents += dd;
  if (groups != nullptr && group_key >= 0) {
    groups->TallySummary(group_key, run.rows(), du, dd);
  }
  sums.units.EndRun(&exec->status);
  sums.dollars.EndRun(&exec->status);
}

bool MiniWarehouse::ScanShards(std::int64_t total_scan,
                              const GroupContext& group,
                              const ThreadPool* pool,
                              const ExecOptions& options, GroupAccum* groups,
                              ExecScratch& scratch) const {
  const std::vector<ShardSelection>& selections = scratch.selections_;
  const std::vector<BitmapAccess>& accesses = scratch.accesses_;
  // Cut every shard's scan ranges with ONE global grain (a few chunks per
  // lane across all shards), so stealing has granularity even when one
  // shard holds most of the work. Chunks are shard-major: shard s owns
  // chunks [first[s], first[s + 1]).
  const int lanes = pool == nullptr ? 1 : pool->size() + 1;
  const std::int64_t grain = ChunkGrain(total_scan, lanes);
  std::vector<RowRange>& chunks = scratch.chunks_;
  std::vector<std::size_t>& first = scratch.first_;
  chunks.clear();
  first.assign(selections.size() + 1, 0);
  for (std::size_t s = 0; s < selections.size(); ++s) {
    CutRanges(selections[s].scan, grain, &chunks);
    first[s + 1] = chunks.size();
  }

  // One private partial per chunk; affinity tasks (one queue per shard,
  // idle lanes steal) or a serial loop fill them, and the merge in
  // ExecuteSharded is the only point that reads them — in fixed (shard,
  // chunk) order, so the record is bit-identical at any worker count.
  std::vector<MdhfExecution>& partials = scratch.partials_;
  partials.clear();
  partials.resize(chunks.size());
  // Grouped runs mirror the scan partials with per-chunk group
  // accumulators merged below — element-wise integer sums, so the merge
  // order never changes the grouped result.
  std::vector<GroupAccum>& gpartials = scratch.chunk_groups_;
  gpartials.resize(groups != nullptr ? chunks.size() : 0);
  for (auto& g : gpartials) g.Reset(group.card);
  const auto scan = [&](std::size_t slot) {
    ScanChunk(chunks[slot].begin, chunks[slot].end, accesses, group,
              options.cancel, &partials[slot],
              groups == nullptr ? nullptr : &gpartials[slot]);
  };
  bool all_ran = true;
  if (pool != nullptr && chunks.size() >= 2) {
    std::vector<std::int64_t>& queue_sizes = scratch.queue_sizes_;
    queue_sizes.resize(selections.size());
    for (std::size_t s = 0; s < selections.size(); ++s) {
      queue_sizes[s] = static_cast<std::int64_t>(first[s + 1] - first[s]);
    }
    all_ran = pool->ParallelForQueues(
        queue_sizes,
        [&](int s, std::int64_t c) {
          scan(first[static_cast<std::size_t>(s)] +
               static_cast<std::size_t>(c));
        },
        options.cancel);
  } else {
    for (std::size_t slot = 0; slot < chunks.size(); ++slot) {
      if (options.cancel.ShouldStop()) {
        all_ran = false;
        break;
      }
      scan(slot);
    }
  }
  for (const auto& g : gpartials) groups->Merge(g);
  return all_ran;
}

void MiniWarehouse::ExecuteSharded(const GroupContext& group,
                                   const ThreadPool* pool,
                                   const ExecOptions& options,
                                   GroupAccum* groups, ExecScratch& scratch,
                                   MdhfExecution* out) const {
  const std::vector<ShardSelection>& selections = scratch.selections_;
  // Covered-only degraded execution drops the scan side entirely —
  // residual fragments are skipped, not partially scanned — leaving just
  // the summary folds below; so does a plan without residual rows.
  std::int64_t total_scan = 0;
  if (!options.covered_only) {
    for (const auto& sel : selections) total_scan += sel.ScanRows();
  }
  const bool scanned = total_scan > 0;
  bool all_ran =
      !scanned || ScanShards(total_scan, group, pool, options, groups, scratch);
  const std::vector<std::size_t>& first = scratch.first_;
  const std::vector<MdhfExecution>& partials = scratch.partials_;

  // Fixed-order merge: shards ascending; within a shard, scan chunks in
  // range order, then the shard's summary runs — all-integer sums, one
  // merge sequence regardless of scheduling. A shard the plan routed
  // nothing to keeps its all-zero work record.
  MdhfExecution& exec = *out;
  const bool sharded = num_shards_ > 1;
  if (sharded) {
    exec.shards.assign(static_cast<std::size_t>(num_shards_), {});
  }
  std::optional<SummaryColumns> sums;  // opened at the first summary run
  for (std::size_t s = 0; s < selections.size(); ++s) {
    const ShardSelection& sel = selections[s];
    if (sel.fragments == 0) continue;
    ShardWork work;
    work.fragments = sel.fragments;
    work.fragments_summarized = sel.fragments_covered;
    if (scanned) {
      for (std::size_t slot = first[s]; slot < first[s + 1]; ++slot) {
        const MdhfExecution& p = partials[slot];
        MergeScanPartial(p, &exec);
        work.rows_scanned += p.rows_scanned;
        work.pages_read += p.pages_read;
        work.buffer_hits += p.buffer_hits;
        work.bytes_read += p.bytes_read;
      }
    }
    if (!sel.summary.empty() && !sums.has_value()) {
      sums.emplace(*this, options.cancel);
    }
    for (std::size_t r = 0; r < sel.summary.size(); ++r) {
      // A tripped token abandons the remaining summary folds too — the
      // typed status below tells the caller the record is incomplete.
      if (!all_ran || options.cancel.ShouldStop()) {
        all_ran = false;
        break;
      }
      const RowRange& run = sel.summary[r];
      FoldSummaryRun(run, *sums, &exec, sel.summary_group[r], groups);
      work.rows_summarized += run.rows();
    }
    if (sums.has_value()) {
      // The shard's summary I/O goes to its split and to the totals.
      work.pages_read += sums->io.pages_read;
      work.buffer_hits += sums->io.buffer_hits;
      work.bytes_read += sums->io.bytes_read;
      FoldIo(sums->io, &exec);
      sums->io = {};
    }
    exec.fragments_summarized += sel.fragments_covered;
    if (sharded) exec.shards[s] = work;
  }
  if (!all_ran) exec.status.Update(options.cancel.CancelStatus());
}

}  // namespace mdw
