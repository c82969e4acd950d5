#ifndef MDW_CORE_WAREHOUSE_H_
#define MDW_CORE_WAREHOUSE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "alloc/disk_allocation.h"
#include "common/status.h"
#include "core/execution_backend.h"
#include "fragment/fragmentation.h"
#include "fragment/plan_cache.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "schema/star_schema.h"
#include "sim/sim_config.h"

namespace mdw {

/// Everything needed to stand up a warehouse: the star schema, the MDHF
/// fragmentation attributes, and which execution backend answers queries.
struct WarehouseConfig {
  StarSchema schema;

  /// MDHF fragmentation attributes (empty = the unfragmented baseline).
  std::vector<FragAttr> fragmentation;

  BackendKind backend = BackendKind::kSimulated;

  /// Hardware and policy settings; used by BackendKind::kSimulated.
  SimConfig sim = {};

  /// Fact-population seed (BackendKind::kMaterialized) and the default
  /// seed for workload drivers running against this warehouse. Defaults
  /// to sim.seed so one seed controls the whole setup.
  std::optional<std::uint64_t> seed;

  /// Capacity (entries) of the shared plan cache memoizing Plan() results
  /// by canonical query signature; 0 disables caching and every
  /// Plan/Execute derives afresh. Copies of a Warehouse share one cache,
  /// so repeated workloads hit across copies.
  std::size_t plan_cache_capacity = 256;

  /// Parallel degree of the materialized backend (the paper's partition
  /// parallelism): fragment row ranges of one query — and the queries of a
  /// batch — are processed as concurrent tasks. 0 = one per CPU the
  /// process may run on (ThreadPool::ResolveWorkers: the affinity mask),
  /// 1 = serial fallback, n = n workers. Results are bit-identical for any value. Ignored by the
  /// simulated backend (it models its own parallelism via SimConfig).
  int num_workers = 0;

  /// Coverage-aware aggregation on the materialized backend: build measure
  /// prefix sums over the fragment-clustered layout so fully-covered
  /// fragments (every row a hit, decided by the planner from the hierarchy
  /// alone) are answered in O(1) per run instead of scanned. Aggregates
  /// are bit-identical either way; `false` restores the scan-everything
  /// behaviour for A/B benchmarking. Ignored by the simulated backend.
  bool enable_fragment_summaries = true;

  /// Physical shards of the materialized store (the paper's disks made
  /// real): fragments are declustered over `num_shards` contiguous store
  /// regions by `allocation`, and execution schedules one affinity task
  /// per shard — idle workers steal residual scan chunks — recording
  /// per-shard work and a skew metric in QueryOutcome. Results are
  /// bit-identical at any shard count. 1 = unsharded (default). Ignored
  /// by the simulated backend (its disks come from SimConfig).
  int num_shards = 1;

  /// Fragment -> shard mapping policy (round robin with optional
  /// round_gap / cluster_factor, Sec. 4.6). `num_disks` is overridden by
  /// `num_shards`; bitmap placement is irrelevant to the in-memory store.
  /// The same AllocationConfig drives the simulator's DiskAllocation, so
  /// one allocation policy can be evaluated in simulation and on real
  /// hardware side by side (see examples/speedup_study).
  AllocationConfig allocation = {};

  /// Non-empty: file-backed materialized store. At construction each
  /// shard's fact columns, measures, and prefix-sum summaries are
  /// written (or reused byte-identically) as page-aligned segment files
  /// under this directory — one subdirectory per shard — and the in-RAM
  /// copies are dropped; queries then read through a page-granular
  /// buffer pool and QueryOutcome reports pages_read / buffer_hits /
  /// bytes_read. Aggregates and logical counters stay bit-identical to
  /// the in-RAM store. Ignored by the simulated backend.
  std::string storage_path = {};
  /// Buffer-pool capacity in pages shared by all shard segments
  /// (file-backed mode only).
  std::int64_t storage_pool_pages = 4096;
  /// How segment pages are read off the filesystem.
  storage::IoBackend storage_backend = storage::IoBackend::kPread;
  /// Read ahead over coalesced unfiltered scan runs (best-effort).
  bool storage_prefetch = true;
  /// How many times the buffer pool retries a failed page load (read
  /// error or checksum mismatch) before the query surfaces a typed error
  /// in QueryOutcome::status. Default: fail on the first error.
  storage::StorageRetryPolicy storage_retry = {};
  /// Deterministic fault injection over the store's page reads — the
  /// chaos-testing hook (see docs/ARCHITECTURE.md, "Failure model").
  /// Disabled by default; file-backed mode only.
  storage::FaultPlan storage_fault = {};
};

/// The single entry point over the paper's machinery: owns the schema,
/// fragmentation, indexes/materialised facts (or the simulator), and the
/// query planner, and executes star queries through a uniform surface.
///
///   mdw::Warehouse wh({.schema = mdw::MakeApb1Schema(),
///                      .fragmentation = {{mdw::kApb1Time, 2},
///                                        {mdw::kApb1Product, 3}}});
///   auto outcome = wh.Execute(mdw::apb1_queries::OneMonthOneGroup(3, 41));
///
/// Value semantics: a Warehouse is copyable and movable; copies share the
/// immutable schema/fragmentation/backend state, so handing a Warehouse
/// around (or destroying the original) never dangles — the hazard of
/// wiring StarSchema* / Fragmentation* into planners and simulators by
/// hand. Plans returned by Plan() likewise keep the fragmentation (and
/// transitively the schema) alive on their own.
class Warehouse {
 public:
  explicit Warehouse(WarehouseConfig config);

  BackendKind backend() const { return backend_->kind(); }
  const StarSchema& schema() const { return *schema_; }
  const Fragmentation& fragmentation() const { return *fragmentation_; }
  std::uint64_t seed() const { return seed_; }

  /// Classifies the query against the fragmentation (Sec. 4.2/4.5) and
  /// derives its fragment set; valid independently of the backend.
  /// Served from the plan cache when enabled (returns a copy of the
  /// cached plan; use PlanShared() to share the cached object itself).
  QueryPlan Plan(const StarQuery& query) const;

  /// Like Plan(), but returns the cache-resident plan without copying
  /// (or a freshly derived one when the cache is disabled). This is the
  /// plan Execute()/ExecuteBatch() run on.
  std::shared_ptr<const QueryPlan> PlanShared(const StarQuery& query) const;

  /// Plans (cache-first) and executes one query on the configured
  /// backend; the backend never re-plans. A query that does not fit the
  /// schema (StarQuery::Validate) is neither planned nor executed: its
  /// outcome carries kInvalidArgument and no aggregate or table.
  QueryOutcome Execute(const StarQuery& query) const;

  /// One-call SQL front end: parses `sql` (the dialect of
  /// workload/query_parser.h — SELECT aggregates, WHERE, GROUP BY,
  /// ORDER BY ... LIMIT), plans it cache-first, and executes on the
  /// configured backend. A malformed statement returns kInvalidArgument
  /// carrying the parser's diagnostic; a well-formed statement returns
  /// the QueryOutcome exactly as Execute() would (execution-side
  /// failures stay typed inside QueryOutcome::status).
  StatusOr<QueryOutcome> ExecuteSql(std::string_view sql) const;

  /// Executes a batch as one run. On the simulated backend `streams` > 1
  /// runs the batch in concurrent query streams (multi-user mode); the
  /// materialized backend ignores it. Queries that fail
  /// StarQuery::Validate keep their slot in `queries` with a
  /// kInvalidArgument outcome (no aggregate, no table) and take no part
  /// in the run: the totals and the simulated metrics cover the valid
  /// queries only.
  BatchOutcome ExecuteBatch(std::span<const StarQuery> queries,
                            int streams = 1) const;

  /// Open-loop multi-user serving (materialized backend only): plans
  /// every arrival (cache-first), admits the trace through a
  /// deterministic virtual-time QueryScheduler under `config` (FCFS or
  /// credit/fair-share, bounded-queue admission control), executes the
  /// served queries on the backend's pool in dispatch order, and returns
  /// their outcomes (admission order) with BatchOutcome::serving engaged
  /// — per-stream p50/p95/p99 latency, queue wait vs service time,
  /// rejected counts and the Jain fairness index, all in virtual time so
  /// they reproduce bit-for-bit regardless of thread timing. Every
  /// served query's QueryOutcome is bit-identical to Execute() of the
  /// same query. `schedule_out` (optional) receives the full schedule.
  /// An arrival that fails StarQuery::Validate is neither planned nor
  /// scheduled: its outcome (kInvalidArgument, no aggregate or table)
  /// sits among the served outcomes in trace order, and the schedule and
  /// serving metrics cover the valid arrivals only (their arrival
  /// indices still refer to `arrivals`).
  BatchOutcome Serve(std::span<const Arrival> arrivals,
                     const ServingConfig& config,
                     ServeSchedule* schedule_out = nullptr) const;

  /// The materialised mini-warehouse backing kMaterialized, or nullptr —
  /// ground-truth checks (full scans, bitmap paths) go through this.
  const MiniWarehouse* materialized() const;

  /// The simulator settings backing kSimulated; aborts on kMaterialized.
  const SimConfig& sim_config() const;

  /// Hit/miss/eviction counters of the shared plan cache; all-zero (with
  /// capacity 0) when caching is disabled. Copies of this Warehouse
  /// report the same counters — they share the cache.
  PlanCache::Stats plan_cache_stats() const;

 private:
  /// The outcome of a query that failed StarQuery::Validate.
  QueryOutcome Rejected(Status status) const;

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const Fragmentation> fragmentation_;
  std::shared_ptr<const MiniWarehouse> mini_;  ///< kMaterialized only
  std::shared_ptr<const ExecutionBackend> backend_;
  std::shared_ptr<const QueryPlanner> planner_;
  std::shared_ptr<PlanCache> plan_cache_;  ///< nullptr when disabled
  std::uint64_t seed_ = 42;
};

}  // namespace mdw

#endif  // MDW_CORE_WAREHOUSE_H_
