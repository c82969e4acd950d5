#ifndef MDW_CORE_MINI_WAREHOUSE_H_
#define MDW_CORE_MINI_WAREHOUSE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/disk_allocation.h"
#include "bitmap/index_set.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "core/result_table.h"
#include "fragment/query_planner.h"
#include "fragment/shard_routing.h"
#include "storage/column_reader.h"
#include "storage/segment_store.h"

namespace mdw {

class ThreadPool;

/// A fully materialised star warehouse at a scale small enough to hold
/// every fact row. It executes star queries three ways — full scan,
/// bitmap-index path, and MDHF fragment-confined path — and is the
/// functional ground truth validating that the fragmentation/planner/index
/// machinery computes exactly the rows a full scan computes. (The
/// full-scale APB-1 configuration is only ever *simulated*; see
/// sim/simulator.h.)
///
/// Physical layout: the constructor permutes the fact columns (and
/// measure vectors) into *fragment-major* order of one MDHF
/// fragmentation — the paper's clustering property (Sec. 4.5) made
/// physical — and keeps a FragId -> [row_begin, row_end) directory, so
/// fragment-confined execution touches only the plan's row ranges
/// (O(selected rows)) and can process ranges as parallel partitions.
/// Plans must come from a fragmentation matching that layout; any other
/// plan is refused with kInvalidArgument. The warehouse optionally builds
/// inclusive prefix sums over the measure columns in that physical order,
/// so a run of *fully-covered* fragments [b, e) (every row a hit, per the
/// plan's coverage classification) is answered as P[e] - P[b] without
/// touching the fact columns at all — O(residual rows) instead of
/// O(selected rows).
///
/// Storage: the columns live in RAM or in per-shard segment files behind
/// a buffer pool, each at its natural width — dimension leaf keys as
/// LeafKey (2 bytes), the two measures as int32_t, the two prefix-sum
/// columns as int64_t: 32 bytes per row. Every kernel reads them through
/// storage::ColumnReader<T>, which hands out blocks (the whole column
/// when resident, one pinned page when paged) and widens nothing itself:
/// every sum is int64_t, and each value widens before it adds.
/// OpenColumn() is the one place that picks the source.
///
/// Sharding (the paper's disk allocation made physical): with
/// `num_shards` > 1 the constructor consults a DiskAllocation
/// (round robin with optional round_gap/cluster_factor, one "disk" per
/// shard) and lays the store out *shard-major*: each shard owns a
/// contiguous region of the permuted columns/measures/prefix sums holding
/// exactly its allocated fragments in ascending id order, with a
/// shard-local FragId -> row-range directory. Execution routes the plan's
/// fragments to their shards and schedules one affinity task per shard
/// (idle workers steal residual scan chunks from busy shards), merging
/// shard partials in fixed shard order so the whole MdhfExecution record
/// stays bit-identical at any worker count and shard count.
class MiniWarehouse {
 private:
  /// One resolved bitmap-needing predicate of a plan.
  struct BitmapAccess {
    const Predicate* pred;
    Depth frag_depth;    ///< fragmentation depth of the dim, or -1
    bool same_ancestor;  ///< suffix-only (within-fragment) eval is sound
  };

 public:
  /// Reusable execution buffers (opaque; defined below MdhfExecution):
  /// pass the same scratch to consecutive ExecuteWithPlan calls to avoid
  /// the per-query heap allocations of routing and scheduling. Not
  /// thread-safe; use one scratch per executing thread.
  class ExecScratch;

  /// Resolved grouping of one execution (derived from the plan):
  /// a fact row's group key is its group-dimension leaf / leaves_per.
  /// Execution-internal, public only so the kernel helpers can name it.
  struct GroupContext {
    bool grouped = false;
    DimId dim = -1;
    std::int64_t leaves_per = 1;
    std::int64_t card = 0;  ///< dense key domain [0, card)
  };

  /// Dense per-chunk group accumulator over the full key domain. Chunk
  /// counts are bounded (a few per lane), so dense beats hashing; the
  /// integer element-wise merge is order-independent, keeping grouped
  /// results bit-identical at any worker x shard count.
  /// Execution-internal, public only so the kernel helpers can name it.
  struct GroupAccum {
    std::vector<std::int64_t> rows;
    std::vector<std::int64_t> units;
    std::vector<std::int64_t> dollars;
    std::vector<std::int64_t> summarized;

    void Reset(std::int64_t card);
    void Tally(std::int64_t key, std::int64_t u, std::int64_t d) {
      const auto k = static_cast<std::size_t>(key);
      ++rows[k];
      units[k] += u;
      dollars[k] += d;
    }
    void TallySummary(std::int64_t key, std::int64_t n, std::int64_t u,
                      std::int64_t d) {
      const auto k = static_cast<std::size_t>(key);
      rows[k] += n;
      summarized[k] += n;
      units[k] += u;
      dollars[k] += d;
    }
    void Merge(const GroupAccum& other);
    /// Sparse key-ascending rows; groups with no matching fact rows are
    /// dropped (SQL GROUP BY emits no row for an empty group).
    std::vector<GroupRow> Compact() const;
  };

  /// Per-execution controls threaded through the MDHF paths.
  struct ExecOptions {
    // User-provided, so `= {}` can default an ExecuteWithPlan argument
    // while MiniWarehouse is still incomplete.
    ExecOptions() {}

    /// Cooperative cancellation: polled at chunk boundaries (a tripped
    /// token abandons the remaining chunks and the execution surfaces
    /// the token's typed status) and passed to the buffer pool so retry
    /// backoff never sleeps past the query's deadline. The
    /// default-constructed (unarmed) token never trips and costs one
    /// null check per chunk — results stay bit-identical to an
    /// execution without options.
    CancellationToken cancel;
    /// Degraded covered-only execution: answer ONLY the fully-covered
    /// fragments from the measure prefix sums and skip every residual
    /// scan. The result is flagged `degraded` — a correct aggregate of
    /// a *subset* of the query's fragments, never a partial scan of a
    /// fragment. Requires summaries (and fragmentation-aligned grouping).
    bool covered_only = false;
  };

  /// Populates the fact table by sampling each possible dimension-value
  /// combination independently with probability schema.density() (the
  /// APB-1 density semantics), clusters the physical layout
  /// fragment-major under the MDHF fragmentation given by `cluster_attrs`
  /// (stable within a fragment; empty attrs = the degenerate
  /// single-fragment clustering, which keeps generation order), and
  /// builds all bitmap join indices over that order. Plans derived from a
  /// fragmentation with the same attributes execute fragment-confined via
  /// the row-range directory. `enable_summaries` additionally builds the
  /// measure prefix sums so fully-covered fragments are answered without
  /// scanning rows (false = scan every selected fragment, for A/B
  /// comparisons). `num_shards` > 1 splits the store into that many
  /// physical shards under `allocation` (num_disks is overridden by
  /// num_shards; bitmap placement is irrelevant to the store) — see the
  /// class comment for the layout and scheduling consequences.
  ///
  /// `storage` with a non-empty path switches the store to file-backed
  /// mode: each shard's columns, measures, and prefix-sum summaries are
  /// written (or reused) as a page-aligned segment file under
  /// storage.path, the in-RAM copies are dropped, and execution resolves
  /// rows through a buffer pool of storage.pool_pages pages — results
  /// stay bit-identical to the in-RAM store; MdhfExecution additionally
  /// reports pages_read / buffer_hits / bytes_read.
  ///
  /// Aborts (MDW_CHECK) on a schema too large to materialise: more than
  /// 50M possible rows, or a dimension with more than
  /// kMaxLeafCardinality leaves (its keys would not fit a LeafKey).
  MiniWarehouse(StarSchema schema, std::uint64_t seed,
                std::vector<FragAttr> cluster_attrs,
                bool enable_summaries = true, int num_shards = 1,
                AllocationConfig allocation = {},
                storage::StoreOptions storage = {});

  const StarSchema& schema() const { return schema_; }
  /// The in-RAM fact columns; aborts in file-backed mode (the columns
  /// were dropped after the segments were written — go through the
  /// execution paths, which read via the buffer pool).
  const FactColumns& facts() const;
  const IndexSet& indexes() const { return *indexes_; }
  std::int64_t row_count() const { return row_count_; }

  /// True iff the fact/measure columns live in segment files behind the
  /// buffer pool instead of RAM.
  bool file_backed() const { return store_ != nullptr; }
  /// The segment store backing file-backed mode, or nullptr.
  const storage::SegmentStore* paged_store() const { return store_.get(); }
  /// Mutable segment store, for tools/benchmarks that reset the buffer
  /// pool between runs (cold-cache measurements); nullptr in RAM mode.
  storage::SegmentStore* mutable_paged_store() { return store_.get(); }

  /// ---- Clustered-layout introspection ----

  /// True iff the measure prefix sums exist, i.e. fully-covered fragments
  /// are answered from summaries instead of row scans.
  bool summaries_enabled() const { return summaries_enabled_; }
  /// The clustering fragmentation (owned by this warehouse, over its
  /// schema()).
  const Fragmentation& cluster_fragmentation() const { return *cluster_frag_; }
  /// True iff `fragmentation` matches the clustered layout (same schema
  /// object, same attribute list), i.e. plans derived from it can run
  /// here.
  bool ClusteredFor(const Fragmentation& fragmentation) const;
  /// Physical row range [begin, end) of fragment `id`.
  std::pair<std::int64_t, std::int64_t> FragmentRows(FragId id) const;

  /// ---- Sharded-layout introspection ----

  /// Number of physical shards (1 = unsharded).
  int num_shards() const { return num_shards_; }
  /// The allocation mapping fragments to shards, or nullptr when
  /// num_shards() == 1.
  const DiskAllocation* shard_allocation() const {
    return shard_alloc_.get();
  }
  /// Shard owning fragment `id` (always 0 when unsharded).
  int ShardOfFragment(FragId id) const;
  /// Contiguous physical row region [begin, end) of shard `s`.
  std::pair<std::int64_t, std::int64_t> ShardRows(int s) const;
  /// Fragments allocated to shard `s`, ascending — their row ranges tile
  /// the shard's region in this order.
  const std::vector<FragId>& ShardFragments(int s) const;

  /// SUM aggregate over the matching rows.
  struct AggregateResult {
    std::int64_t rows = 0;
    std::int64_t units_sold = 0;
    std::int64_t dollar_sales_cents = 0;

    friend bool operator==(const AggregateResult& a,
                           const AggregateResult& b) = default;
  };

  /// Reference execution: scans every fact row and applies the predicates
  /// directly against the dimension hierarchies.
  AggregateResult ExecuteFullScan(const StarQuery& query) const;

  /// Grouped reference execution: the brute-force GROUP BY — one pass over
  /// every fact row, keying each match by its group-dimension ancestor at
  /// the query's GROUP BY depth. Key-ascending, empty groups absent; the
  /// ground truth groupby_test checks the MDHF paths against. Requires
  /// query.grouped(). rows_summarized is 0 in every row (nothing is
  /// answered from summaries here).
  std::vector<GroupRow> ExecuteFullScanGrouped(const StarQuery& query) const;

  /// Bitmap-index execution without fragmentation: intersects the index
  /// selections of all predicates, then aggregates the marked rows.
  AggregateResult ExecuteWithBitmaps(const StarQuery& query) const;

  /// Work one shard contributed to a sharded execution. Deterministic:
  /// which fragments (hence rows) belong to a shard is fixed by the
  /// allocation at construction, independent of scheduling.
  struct ShardWork {
    std::int64_t rows_scanned = 0;
    std::int64_t rows_summarized = 0;
    /// Plan fragments routed to this shard, and the fully-covered ones
    /// among them (empty fragments included).
    std::int64_t fragments = 0;
    std::int64_t fragments_summarized = 0;
    /// I/O this shard's ranges cost in file-backed mode (all-zero in
    /// RAM): pages faulted from its segment, pins served from the pool,
    /// bytes faulted. Deterministic in serial execution; under parallel
    /// execution the hit/fault split depends on scheduling (see
    /// MdhfExecution).
    std::int64_t pages_read = 0;
    std::int64_t buffer_hits = 0;
    std::int64_t bytes_read = 0;

    /// Busy-work proxy behind the skew metric: one unit per residual row
    /// scanned plus one per fragment answered from summaries (a summary
    /// run costs O(1) per fragment, not per row).
    std::int64_t BusyWork() const { return rows_scanned + fragments_summarized; }

    friend bool operator==(const ShardWork& a, const ShardWork& b) = default;
  };

  /// MDHF execution under `fragmentation`: confines processing to the
  /// plan's fragments, uses bitmaps only for the predicates the plan says
  /// need them, and reports the work actually touched.
  struct MdhfExecution {
    AggregateResult result;
    /// Per-group partials of a grouped execution (plan.grouped()), sparse
    /// and key-ascending; empty for ungrouped plans. `result` stays the
    /// grand total over all groups, so ungrouped consumers keep working
    /// unchanged. Like `result`, only trustworthy when `status` is ok.
    /// Sum of rows / rows_summarized over the groups equals the record's
    /// result.rows / rows_summarized (counter partition).
    std::vector<GroupRow> groups;
    std::int64_t fragments_processed = 0;
    /// Rows actually scanned, i.e. rows of the *residual* fragments (with
    /// summaries disabled every processed fragment is residual, so this
    /// reverts to "rows in the processed fragments").
    std::int64_t rows_scanned = 0;
    /// Fully-covered fragments answered from the measure prefix sums
    /// (empty ones included), and the rows they contributed without being
    /// scanned. Zero when summaries are disabled.
    std::int64_t fragments_summarized = 0;
    std::int64_t rows_summarized = 0;
    /// File-backed I/O of this execution (all-zero for an in-RAM store,
    /// so records of RAM warehouses keep comparing equal as before):
    /// pages faulted from the segment files (demand misses plus pages
    /// prefetched for this query), pool pins served from cache, and
    /// bytes faulted. Sums over `shards` equal the totals. Unlike the
    /// aggregate and the logical counters these are NOT part of the
    /// bit-identical guarantee across worker counts: with more than one
    /// worker, which chunk faults a shared boundary page first depends
    /// on scheduling (serial execution is deterministic).
    std::int64_t pages_read = 0;
    std::int64_t buffer_hits = 0;
    std::int64_t bytes_read = 0;
    /// First error this execution hit: kInvalidArgument for a plan whose
    /// fragmentation does not match the clustered layout (nothing ran),
    /// a cancellation status, or a storage error (never for an in-RAM
    /// store or a fault-free file-backed run). When not ok, `result` is
    /// NOT trustworthy — the failed cursor answered zeros so the kernels
    /// could run to completion — and the caller must discard it (the
    /// Warehouse layer nulls the aggregate). Partials merge in fixed
    /// chunk order, so WHICH error surfaces is deterministic at any
    /// worker count (first-error-wins over the merge sequence).
    Status status;
    /// Failure/retry accounting from the buffer pool, summed over this
    /// execution's cursors: failed read attempts, extra attempts the
    /// retry policy issued, and CRC verification failures. All zero on
    /// a healthy store; like the I/O counters above they are exempt
    /// from the bit-identical guarantee under parallel execution.
    std::int64_t io_errors = 0;
    std::int64_t io_retries = 0;
    std::int64_t checksum_failures = 0;
    /// True iff this execution ran covered-only degraded mode
    /// (ExecOptions::covered_only): the aggregate covers exactly the
    /// plan's fully-covered fragments and the residual fragments were
    /// never touched. A degraded result is correct for that subset —
    /// callers must treat it as an under-approximation, not the full
    /// answer.
    bool degraded = false;
    int bitmaps_read = 0;           ///< per fragment, from the plan
    QueryClass query_class = QueryClass::kUnsupported;
    IoClass io_class = IoClass::kIoc2NoSupp;
    /// Per-shard work split, index = shard id. Populated only by sharded
    /// execution (num_shards > 1); empty otherwise.
    std::vector<ShardWork> shards;

    /// Skew of the shard work split: max/mean BusyWork over the shards
    /// (1.0 = perfectly balanced, num_shards = all work on one shard).
    /// 0 when unsharded or when the query did no work at all.
    double ShardSkew() const;

    friend bool operator==(const MdhfExecution& a,
                           const MdhfExecution& b) = default;
  };

  class ExecScratch {
   public:
    ExecScratch() = default;

   private:
    friend class MiniWarehouse;
    std::vector<BitmapAccess> accesses_;
    /// Routed per-shard work, one selection per shard.
    std::vector<ShardSelection> selections_;
    /// ScanShards' scan chunks (shard-major), each shard's first chunk,
    /// one partial per chunk, and each shard's chunk count.
    std::vector<RowRange> chunks_;
    std::vector<std::size_t> first_;
    std::vector<MdhfExecution> partials_;
    std::vector<std::int64_t> queue_sizes_;
    /// Grouped executions: the query's accumulator and one per chunk.
    GroupAccum groups_;
    std::vector<GroupAccum> chunk_groups_;
  };
  /// The MDHF execution: runs `query` under `plan` (derived by the
  /// caller, typically once per batch through Warehouse's plan cache)
  /// without re-planning. The plan's fragmentation must match the
  /// clustered layout (ClusteredFor); any other plan returns a record
  /// whose status is kInvalidArgument and which ran nothing. Execution
  /// walks the fragment directory and touches only the plan's row ranges.
  ///
  /// `pool` splits those ranges into tasks, each accumulating a private
  /// partial that is merged in fixed order, so the record — counters
  /// included — is identical for any worker count (nullptr = serial).
  /// `scratch` reuses its buffers instead of allocating per query
  /// (nullptr = the calling thread's own scratch); batch drivers pass one
  /// scratch across their loop. `options` threads cooperative cancellation and
  /// covered-only degradation through the execution: when options.cancel
  /// trips mid-execution the remaining chunks are abandoned and the
  /// record's status carries the token's typed error
  /// (kDeadlineExceeded/kCancelled) — the result must be discarded, as
  /// for a storage error; a token that trips only after the last chunk
  /// finished leaves the (complete, correct) record untouched.
  MdhfExecution ExecuteWithPlan(const StarQuery& query, const QueryPlan& plan,
                                const ThreadPool* pool = nullptr,
                                ExecScratch* scratch = nullptr,
                                const ExecOptions& options = {}) const;

 private:
  void Populate(std::uint64_t seed);
  void ClusterByFragment(std::vector<FragAttr> cluster_attrs, int num_shards,
                         AllocationConfig allocation);
  /// Writes (or reuses) the per-shard segment files under `options`,
  /// opens them behind the buffer pool, and drops the in-RAM columns.
  void BuildPagedStore(std::uint64_t seed,
                       const storage::StoreOptions& options);
  /// Column ids, in the order both sources hold them (the segment's
  /// on-disk order): dimension d is column d, then the two measures and
  /// the two measure prefix sums.
  int ColUnits() const { return schema_.num_dimensions(); }
  int ColDollars() const { return ColUnits() + 1; }
  int ColUnitsPrefix() const { return ColUnits() + 2; }
  int ColDollarsPrefix() const { return ColUnits() + 3; }
  /// A block reader over `column`, read as T (its stored width): its
  /// resident block, or a buffer-pool cursor attributing its I/O into
  /// `io` and capping pin retries by `cancel` in file-backed mode. The
  /// only place that picks the source.
  template <typename T>
  storage::ColumnReader<T> OpenColumn(int column,
                                      storage::SegmentStore::IoCounters* io,
                                      const CancellationToken& cancel) const {
    if (store_ != nullptr) {
      return storage::ColumnReader<T>(store_->MakeCursor(column, io, cancel));
    }
    return storage::ColumnReader<T>(
        resident_[static_cast<std::size_t>(column)].Block<T>());
  }
  /// The reference full scan behind ExecuteFullScan{,Grouped}: matches
  /// each row against the predicates through the hierarchies and, with
  /// `groups` non-null, tallies it under its `group_by` key.
  AggregateResult FullScan(const StarQuery& query, const GroupBy* group_by,
                           GroupAccum* groups) const;
  void ResolveBitmapAccesses(const StarQuery& query, const QueryPlan& plan,
                             std::vector<BitmapAccess>* out) const;
  /// ExecuteWithPlan past its checks: routes the plan's fragment runs to
  /// their shards through the flat directory tables, executes them into
  /// the fresh record `exec`, and fills in its plan-derived facts. The
  /// bitmap accesses are already resolved into `scratch`.
  void ExecuteFragments(const QueryPlan& plan, const ThreadPool* pool,
                        const ExecOptions& options, ExecScratch& scratch,
                        MdhfExecution* exec) const;
  /// Aggregates rows [begin, end) of the clustered layout under the
  /// accesses' bitmap filters (evaluated over the range only), reading
  /// the columns through per-chunk readers (which, file-backed, also
  /// attribute the chunk's I/O into `partial`). One call per scan chunk;
  /// safe to run concurrently. With `groups` non-null every hit is
  /// additionally tallied into its per-row group key (group.dim leaf /
  /// group.leaves_per).
  void ScanChunk(std::int64_t begin, std::int64_t end,
                 const std::vector<BitmapAccess>& accesses,
                 const GroupContext& group, const CancellationToken& cancel,
                 MdhfExecution* partial, GroupAccum* groups) const;
  /// Scans the per-shard selections' `total_scan` (> 0) residual rows
  /// into one partial per chunk in `scratch`: affinity tasks + stealing
  /// on `pool` (serial in shard order without one). Returns whether every
  /// chunk ran (false once options.cancel trips).
  bool ScanShards(std::int64_t total_scan, const GroupContext& group,
                  const ThreadPool* pool, const ExecOptions& options,
                  GroupAccum* groups, ExecScratch& scratch) const;
  /// Executes the per-shard selections routed into `scratch` into the
  /// fresh record `out`: the residual scan (ScanShards, skipped when no
  /// rows are left to scan), then a fixed-order merge with the summary
  /// folds. Selection s reports as shard s.
  void ExecuteSharded(const GroupContext& group, const ThreadPool* pool,
                      const ExecOptions& options, GroupAccum* groups,
                      ExecScratch& scratch, MdhfExecution* out) const;
  /// The prefix-sum readers one execution folds all its summary runs
  /// through, and the I/O they accrue (the caller folds `io` into its
  /// record). Built in place: the readers point at `io`.
  struct SummaryColumns {
    SummaryColumns(const MiniWarehouse& wh, const CancellationToken& cancel)
        : units(wh.OpenColumn<std::int64_t>(wh.ColUnitsPrefix(), &io, cancel)),
          dollars(wh.OpenColumn<std::int64_t>(wh.ColDollarsPrefix(), &io,
                                              cancel)) {}
    SummaryColumns(const SummaryColumns&) = delete;
    SummaryColumns& operator=(const SummaryColumns&) = delete;

    storage::SegmentStore::IoCounters io;
    storage::ColumnReader<std::int64_t> units;
    storage::ColumnReader<std::int64_t> dollars;
  };
  /// Folds a summary run [begin, end) into exec from the prefix sums:
  /// two values per measure, read through `sums`, whose readers then
  /// start over for the next run (file-backed runs pin pages exactly as
  /// readers opened per run would). With `groups` non-null the run is
  /// additionally credited to `group_key` (aligned grouped plans: the
  /// whole run lies in one group).
  void FoldSummaryRun(const RowRange& run, SummaryColumns& sums,
                      MdhfExecution* exec, std::int64_t group_key = -1,
                      GroupAccum* groups = nullptr) const;

  StarSchema schema_;
  std::int64_t row_count_ = 0;
  /// In-RAM columns; emptied (but the store stays authoritative through
  /// store_) in file-backed mode. Measures are int32_t: units_sold lies in
  /// [1, 100] and dollar_sales_cents in [100, 100000].
  FactColumns facts_;
  std::vector<std::int32_t> units_sold_;
  std::vector<std::int32_t> dollar_sales_cents_;
  std::unique_ptr<IndexSet> indexes_;
  /// Every column, by column id; empty once file-backed.
  std::vector<storage::ColumnSource> resident_;
  /// File-backed mode: the page-aligned segment files and their buffer
  /// pool; nullptr for the in-RAM store.
  std::unique_ptr<storage::SegmentStore> store_;

  /// Clustered layout: rows of fragment f occupy [frag_offsets_[r], frag_offsets_[r+1])
  /// where r = frag_rank_[f], the fragment's position in shard-major
  /// order (identity when unsharded, so ranks == ids).
  std::unique_ptr<Fragmentation> cluster_frag_;
  std::vector<std::int64_t> frag_rank_;
  std::vector<std::int64_t> frag_offsets_;

  /// Shard split of the clustered layout. Unsharded stores keep
  /// num_shards_ == 1 with the whole table as shard 0 and no allocation.
  int num_shards_ = 1;
  std::unique_ptr<DiskAllocation> shard_alloc_;
  std::vector<int> shard_of_frag_;                ///< FragId -> shard
  std::vector<std::int64_t> shard_row_begin_;     ///< size num_shards_+1
  std::vector<std::vector<FragId>> shard_fragments_;

  /// Measure prefix sums in clustered row order (size row_count() + 1,
  /// P[0] = 0): sum over physical rows [b, e) is P[e] - P[b]. Built only
  /// with summaries enabled.
  bool summaries_enabled_ = false;
  std::vector<std::int64_t> units_prefix_;
  std::vector<std::int64_t> dollars_prefix_;
};

}  // namespace mdw

#endif  // MDW_CORE_MINI_WAREHOUSE_H_
