#ifndef MDW_CORE_EXECUTION_BACKEND_H_
#define MDW_CORE_EXECUTION_BACKEND_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/mini_warehouse.h"
#include "fragment/query_planner.h"
#include "sched/query_scheduler.h"
#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "sim/simulator.h"

namespace mdw {

/// How a Warehouse executes queries.
enum class BackendKind {
  /// Fully materialised in-memory facts (core/mini_warehouse): functional
  /// aggregates, exact rows touched; only feasible at small scale.
  kMaterialized,
  /// SIMPAD discrete-event simulation (sim/simulator): timing and device
  /// metrics at arbitrary scale; the fact data is never materialised.
  kSimulated,
};

const char* ToString(BackendKind kind);

/// Unified result of executing one star query through any backend.
///
/// Population rules:
/// - The plan facts are ALWAYS present, on every backend — they come
///   from the QueryPlan the façade derived (plan-first pipeline; see
///   docs/ARCHITECTURE.md). On kMaterialized they are overwritten with
///   the execution's own record, so they can never drift from what ran.
/// - `table` is the primary functional result, engaged IFF
///   backend == kMaterialized AND `status` is ok. It carries the
///   query's AggregateSpec/GroupBy/OrderBy and one GroupRow per
///   non-empty group in ORDER BY order (key-ascending without one,
///   truncated to LIMIT). An ungrouped query yields the degenerate
///   zero-group table: exactly one row with key 0 summing every
///   matching fact row — even when no row matched (SQL semantics for an
///   ungrouped aggregate).
/// - `aggregate` and `rows_scanned` are populated IFF
///   backend == kMaterialized (`aggregate` engaged, exact SUMs over the
///   matching rows). `aggregate` survives as the deprecated scalar
///   mirror of the zero-group case: it always holds the grand total
///   over all groups (equal to the ungrouped table's only row); new
///   code should read `table`. On kSimulated both are nullopt — the
///   fact data is never materialised, so there is nothing to sum.
/// - `sim` and `response_ms` are populated IFF backend == kSimulated:
///   `sim` holds the full device/timing metrics of a single-query run
///   and `response_ms` mirrors sim->avg_response_ms. On kMaterialized
///   `sim` is nullopt and `response_ms` stays 0 — materialised
///   execution has no timing model.
struct QueryOutcome {
  BackendKind backend = BackendKind::kSimulated;

  // ---- plan facts (always present) ----
  QueryClass query_class = QueryClass::kUnsupported;
  IoClass io_class = IoClass::kIoc2NoSupp;
  std::int64_t fragments_processed = 0;
  int bitmaps_per_fragment = 0;
  double selectivity = 0;

  // ---- functional result (kMaterialized) ----
  /// The result table (see the population rules above). On a degraded
  /// outcome its rows cover exactly the plan's fully-covered fragments,
  /// like `aggregate`.
  std::optional<ResultTable> table;
  std::optional<MiniWarehouse::AggregateResult> aggregate;
  /// Rows of the *residual* fragments actually scanned; with fragment
  /// summaries disabled (WarehouseConfig::enable_fragment_summaries =
  /// false) every processed fragment is residual, so this is all rows of
  /// the processed fragments.
  std::int64_t rows_scanned = 0;
  /// Fully-covered fragments answered from the measure prefix sums and
  /// the rows they contributed without being scanned (kMaterialized with
  /// summaries enabled; 0 otherwise).
  std::int64_t fragments_summarized = 0;
  std::int64_t rows_summarized = 0;
  /// Per-shard work split of a sharded materialized execution (index =
  /// shard id) and its skew — max/mean shard busy-work, 1.0 = perfectly
  /// balanced. Empty/0 unless kMaterialized with
  /// WarehouseConfig::num_shards > 1 and the plan hit the clustered
  /// layout. Deterministic: the split depends only on the allocation.
  std::vector<MiniWarehouse::ShardWork> shards;
  double shard_skew = 0;
  /// File-backed I/O of a materialized execution (all-zero for an
  /// in-RAM store and on kSimulated): segment pages faulted from disk
  /// (demand misses plus pages prefetched for this query), buffer-pool
  /// pins served from cache, and bytes faulted. Per-shard splits live
  /// in `shards` and sum to these totals. Deterministic when
  /// num_workers == 1; under parallel execution the hit/fault split
  /// depends on scheduling (the simulated backend's I/O counts live in
  /// `sim` instead).
  std::int64_t pages_read = 0;
  std::int64_t buffer_hits = 0;
  std::int64_t bytes_read = 0;
  /// Storage health of a materialized execution. `status` is ok on every
  /// healthy run (RAM or file-backed); when a page read still fails
  /// after the buffer pool's retry policy, `status` carries the typed
  /// error (kIoError / kCorruption), `aggregate` is DISENGAGED (the
  /// partial sums are not trustworthy), and the failure is confined to
  /// this query — other queries of the same batch/serve run are
  /// unaffected, and nothing poisoned stays in the buffer pool. The
  /// counters attribute failed read attempts, retry attempts issued,
  /// and CRC verification failures to this query. Always ok/zero on
  /// kSimulated.
  Status status;
  std::int64_t io_errors = 0;
  std::int64_t io_retries = 0;
  std::int64_t checksum_failures = 0;
  /// Re-executions the serving requeue policy issued for this query
  /// (ServingConfig::max_requeues); 0 outside Warehouse::Serve.
  int requeues = 0;
  /// Deadline/cancellation semantics reuse `status` and `aggregate`: a
  /// query abandoned mid-execution (expired deadline, explicit cancel,
  /// or a serving requeue skipped because the deadline had passed)
  /// carries kDeadlineExceeded/kCancelled in `status` with `aggregate`
  /// DISENGAGED — a tripped query never reports a partial sum. A query
  /// that completed before its token tripped keeps its ok status and
  /// exact aggregate.
  ///
  /// Set iff this query ran in degraded covered-only mode (overload
  /// deadline rescue): `aggregate` is engaged but covers EXACTLY the
  /// plan's fully-covered fragments, answered from the measure prefix
  /// sums — an under-approximation of the full answer, never a partial
  /// scan. rows_scanned is 0 on a degraded outcome.
  bool degraded = false;

  // ---- timing and device metrics (kSimulated) ----
  std::optional<SimResult> sim;
  double response_ms = 0;  ///< convenience mirror of sim->avg_response_ms

  /// Field-wise equality — the serving tests' "bit-identical to a direct
  /// Execute" guarantee is checked through this.
  friend bool operator==(const QueryOutcome& a,
                         const QueryOutcome& b) = default;
};

/// Result of executing a batch of queries: per-query outcomes in input
/// order plus run-level statistics.
///
/// Population rules:
/// - `queries[i]` corresponds to the i-th submitted query. Plan facts
///   are always filled; the per-query optionals follow the QueryOutcome
///   rules for the batch's backend.
/// - kMaterialized: `total_aggregate` is engaged (the sum over all
///   per-query aggregates); `sim` is nullopt and `makespan_ms` is 0.
/// - kSimulated: `sim` is engaged with the WHOLE-RUN metrics — device
///   utilizations, I/O counts and response-time statistics cover the
///   complete (possibly multi-stream) run, not any single query — and
///   `makespan_ms` mirrors sim->makespan_ms.
///
/// Per-query attribution: `queries[i].response_ms` is filled for EVERY
/// stream count — the simulator attributes each response to its
/// submitted query id (SimResult::response_by_query_ms), so multi-stream
/// simulated latencies compare per-query against real executions. (The
/// historical completion-order vector survives as sim->response_ms.)
///
/// Serving runs (Warehouse::Serve): `serving` is engaged with the
/// deterministic virtual-time metrics — per-stream latency percentiles,
/// queue wait vs service time, rejected counts, and the Jain fairness
/// index — and `queries` holds the outcomes of the SERVED queries in
/// admission order (rejected/unserved arrivals execute nothing).
struct BatchOutcome {
  BackendKind backend = BackendKind::kSimulated;
  std::vector<QueryOutcome> queries;

  std::optional<MiniWarehouse::AggregateResult> total_aggregate;
  std::optional<SimResult> sim;
  std::optional<ServeMetrics> serving;
  double makespan_ms = 0;

  double ThroughputPerSecond() const {
    return sim.has_value() ? sim->ThroughputPerSecond() : 0;
  }
};

/// Strategy interface mdw::Warehouse executes through; one implementation
/// per BackendKind. Implementations are immutable after construction and
/// safe to share between Warehouse copies.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Executes one query whose plan the façade already derived.
  virtual QueryOutcome Execute(const StarQuery& query,
                               const QueryPlan& plan) const = 0;

  /// Executes `queries` (with matching `plans`) as one run; `streams` is
  /// the number of concurrent query streams where the backend models
  /// concurrency, and ignored otherwise.
  virtual BatchOutcome ExecuteBatch(std::span<const StarQuery> queries,
                                    std::span<const QueryPlan> plans,
                                    int streams) const = 0;
};

/// Functional execution against a materialised MiniWarehouse. Streams are
/// ignored: materialised execution has no timing model, so a batch is just
/// the per-query aggregates plus their sum.
///
/// Partition parallelism (the paper's processing model): with
/// `num_workers` resolved to more than one, the backend owns a ThreadPool
/// and runs a single Execute as parallel tasks over the plan's fragment
/// row ranges, and ExecuteBatch as parallel tasks over the batch's queries
/// (each query then serial, so the pool is never nested). Results are
/// identical for any worker count.
class MaterializedBackend : public ExecutionBackend {
 public:
  /// `num_workers`: 0 = one per CPU in the affinity mask
  /// (ThreadPool::ResolveWorkers), 1 = serial, n = n workers.
  MaterializedBackend(std::shared_ptr<const MiniWarehouse> warehouse,
                      std::shared_ptr<const Fragmentation> fragmentation,
                      int num_workers = 1);

  BackendKind kind() const override { return BackendKind::kMaterialized; }
  QueryOutcome Execute(const StarQuery& query,
                       const QueryPlan& plan) const override;
  BatchOutcome ExecuteBatch(std::span<const StarQuery> queries,
                            std::span<const QueryPlan> plans,
                            int streams) const override;

  /// Open-loop multi-user serving: schedules the arrival trace (one plan
  /// per arrival) through a deterministic virtual-time QueryScheduler —
  /// admission control, FCFS/credit/SRPT dispatch — then executes the
  /// served queries on the shared pool in dispatch order, each serially
  /// within its task, so every outcome is bit-identical to a direct
  /// Execute of the same query. `config.num_workers == 0` adopts this
  /// backend's resolved degree.
  ///
  /// Deadlines: with `config.deadline_vt` (or per-stream overrides) set,
  /// admission rejects provably-infeasible arrivals, expired waiting
  /// queries are shed (or degraded to covered-only when their stream
  /// opts in) before dispatch, and which queries complete / degrade /
  /// shed is deterministic at any worker or shard count. With
  /// `config.exec_deadline_us` set every execution additionally runs
  /// under a wall-clock token (linked under `config.cancel`); a tripped
  /// execution yields a typed kDeadlineExceeded/kCancelled outcome with
  /// no aggregate, neighbours unaffected. The requeue policy never
  /// re-executes a query whose wall deadline already expired — such
  /// queries count as deadline_missed, not failed.
  ///
  /// Returns the served queries' outcomes in admission order with
  /// `serving` metrics engaged; `schedule_out` (optional) receives the
  /// full virtual-time schedule.
  BatchOutcome Serve(std::span<const Arrival> arrivals,
                     std::span<const QueryPlan> plans, ServingConfig config,
                     ServeSchedule* schedule_out = nullptr) const;

  const MiniWarehouse& warehouse() const { return *warehouse_; }
  /// The resolved parallel degree (>= 1).
  int num_workers() const { return num_workers_; }

 private:
  QueryOutcome ExecuteWith(const StarQuery& query, const QueryPlan& plan,
                           const ThreadPool* pool,
                           MiniWarehouse::ExecScratch* scratch,
                           const MiniWarehouse::ExecOptions& options = {}) const;
  /// The worker pool, spawned lazily on the first execution that can use
  /// it (so plan-only / serial warehouses never pay for threads); nullptr
  /// when num_workers_ == 1.
  const ThreadPool* pool() const;

  std::shared_ptr<const MiniWarehouse> warehouse_;
  std::shared_ptr<const Fragmentation> fragmentation_;
  int num_workers_ = 1;
  mutable std::once_flag pool_once_;
  mutable std::shared_ptr<const ThreadPool> pool_;
};

/// Timing/IO execution on the SIMPAD Shared Disk/Shared Nothing simulator.
/// Batches honour `streams` via the simulator's multi-user mode.
class SimulatedBackend : public ExecutionBackend {
 public:
  SimulatedBackend(std::shared_ptr<const StarSchema> schema,
                   std::shared_ptr<const Fragmentation> fragmentation,
                   SimConfig config);

  BackendKind kind() const override { return BackendKind::kSimulated; }
  QueryOutcome Execute(const StarQuery& query,
                       const QueryPlan& plan) const override;
  BatchOutcome ExecuteBatch(std::span<const StarQuery> queries,
                            std::span<const QueryPlan> plans,
                            int streams) const override;

  const SimConfig& config() const { return simulator_.config(); }

 private:
  Simulator simulator_;
};

}  // namespace mdw

#endif  // MDW_CORE_EXECUTION_BACKEND_H_
