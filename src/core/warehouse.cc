#include "core/warehouse.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "workload/query_parser.h"

namespace mdw {

Warehouse::Warehouse(WarehouseConfig config)
    : seed_(config.seed.value_or(config.sim.seed)) {
  if (config.backend == BackendKind::kMaterialized) {
    // The mini-warehouse owns its schema copy; alias the façade's schema
    // handle to it so fragmentation and planner see the same object the
    // warehouse validates against. It is built fragment-clustered under
    // the configured fragmentation attributes, so plans derived by this
    // façade execute fragment-confined through the row-range directory.
    MDW_CHECK(config.num_shards >= 1, "num_shards must be at least 1");
    storage::StoreOptions store_options;
    store_options.path = std::move(config.storage_path);
    store_options.pool_pages = config.storage_pool_pages;
    store_options.backend = config.storage_backend;
    store_options.prefetch = config.storage_prefetch;
    store_options.retry = config.storage_retry;
    store_options.fault_plan = std::move(config.storage_fault);
    mini_ = std::make_shared<const MiniWarehouse>(
        std::move(config.schema), seed_, config.fragmentation,
        config.enable_fragment_summaries, config.num_shards,
        config.allocation, std::move(store_options));
    schema_ = std::shared_ptr<const StarSchema>(mini_, &mini_->schema());
  } else {
    schema_ = std::make_shared<const StarSchema>(std::move(config.schema));
  }

  // The fragmentation's deleter captures the schema handle: any QueryPlan
  // or backend holding the fragmentation transitively keeps the schema
  // (and for kMaterialized the fact data) alive.
  auto schema = schema_;
  fragmentation_ = std::shared_ptr<const Fragmentation>(
      new Fragmentation(schema.get(), std::move(config.fragmentation)),
      [schema](const Fragmentation* f) { delete f; });

  if (config.backend == BackendKind::kMaterialized) {
    backend_ = std::make_shared<MaterializedBackend>(mini_, fragmentation_,
                                                     config.num_workers);
  } else {
    backend_ = std::make_shared<SimulatedBackend>(schema_, fragmentation_,
                                                  std::move(config.sim));
  }

  planner_ = std::make_shared<const QueryPlanner>(schema_, fragmentation_);
  if (config.plan_cache_capacity > 0) {
    plan_cache_ = std::make_shared<PlanCache>(config.plan_cache_capacity);
  }
}

QueryPlan Warehouse::Plan(const StarQuery& query) const {
  return *PlanShared(query);
}

std::shared_ptr<const QueryPlan> Warehouse::PlanShared(
    const StarQuery& query) const {
  if (plan_cache_ == nullptr) {
    return std::make_shared<const QueryPlan>(planner_->Plan(query));
  }
  return plan_cache_->GetOrPlan(query, *planner_);
}

QueryOutcome Warehouse::Rejected(Status status) const {
  QueryOutcome outcome;
  outcome.backend = backend_->kind();
  outcome.status = std::move(status);
  return outcome;
}

QueryOutcome Warehouse::Execute(const StarQuery& query) const {
  if (Status s = query.Validate(*schema_); !s.ok()) {
    return Rejected(std::move(s));
  }
  return backend_->Execute(query, *PlanShared(query));
}

StatusOr<QueryOutcome> Warehouse::ExecuteSql(std::string_view sql) const {
  StatusOr<StarQuery> query = ParseSql(*schema_, sql);
  if (!query.ok()) return query.status();
  // The parser already checked every name and literal against the schema.
  return backend_->Execute(*query, *PlanShared(*query));
}

BatchOutcome Warehouse::ExecuteBatch(std::span<const StarQuery> queries,
                                     int streams) const {
  MDW_CHECK(!queries.empty(), "empty batch");
  // The backends consume contiguous plans; cache hits are copied out of
  // the cache (a copy is two vector clones — far cheaper than deriving).
  std::vector<Status> statuses;
  statuses.reserve(queries.size());
  std::vector<QueryPlan> plans;
  plans.reserve(queries.size());
  for (const auto& q : queries) {
    statuses.push_back(q.Validate(*schema_));
    if (statuses.back().ok()) plans.push_back(*PlanShared(q));
  }
  if (plans.size() == queries.size()) {
    return backend_->ExecuteBatch(queries, plans, streams);
  }

  // Run the valid queries alone, then put every rejected query back in
  // its slot.
  std::vector<StarQuery> valid;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (statuses[i].ok()) valid.push_back(queries[i]);
  }
  BatchOutcome batch;
  batch.backend = backend_->kind();
  if (batch.backend == BackendKind::kMaterialized) {
    batch.total_aggregate = MiniWarehouse::AggregateResult{};
  }
  if (!valid.empty()) batch = backend_->ExecuteBatch(valid, plans, streams);
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(queries.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    outcomes.push_back(statuses[i].ok() ? std::move(batch.queries[next++])
                                        : Rejected(std::move(statuses[i])));
  }
  batch.queries = std::move(outcomes);
  return batch;
}

BatchOutcome Warehouse::Serve(std::span<const Arrival> arrivals,
                              const ServingConfig& config,
                              ServeSchedule* schedule_out) const {
  MDW_CHECK(backend_->kind() == BackendKind::kMaterialized,
            "Serve() needs BackendKind::kMaterialized — the simulated "
            "backend models multi-user streams via ExecuteBatch(streams)");
  const auto* backend =
      static_cast<const MaterializedBackend*>(backend_.get());
  std::vector<Status> statuses;
  statuses.reserve(arrivals.size());
  std::vector<QueryPlan> plans;
  plans.reserve(arrivals.size());
  for (const auto& a : arrivals) {
    statuses.push_back(a.query.Validate(*schema_));
    if (statuses.back().ok()) plans.push_back(*PlanShared(a.query));
  }

  // Serve the valid arrivals as a trace of their own, then map its
  // schedule back to trace indices and put every rejected arrival's
  // outcome in its place: served outcomes are in admission order, which
  // is ascending trace order (the scheduler admits arrivals in order).
  std::vector<Arrival> valid;
  std::vector<std::int64_t> trace_index;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (!statuses[i].ok()) continue;
    valid.push_back(arrivals[i]);
    trace_index.push_back(static_cast<std::int64_t>(i));
  }
  ServeSchedule schedule;
  BatchOutcome batch = backend->Serve(valid, plans, config, &schedule);
  std::vector<bool> served(arrivals.size(), false);
  for (ScheduledQuery& q : schedule.admitted) {
    q.arrival_index = trace_index[static_cast<std::size_t>(q.arrival_index)];
    served[static_cast<std::size_t>(q.arrival_index)] = q.served;
  }
  for (std::int64_t& r : schedule.rejected) {
    r = trace_index[static_cast<std::size_t>(r)];
  }
  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(batch.queries.size() + arrivals.size() - valid.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (!statuses[i].ok()) {
      outcomes.push_back(Rejected(std::move(statuses[i])));
    } else if (served[i]) {
      outcomes.push_back(std::move(batch.queries[next++]));
    }
  }
  batch.queries = std::move(outcomes);
  if (schedule_out != nullptr) *schedule_out = std::move(schedule);
  return batch;
}

const MiniWarehouse* Warehouse::materialized() const { return mini_.get(); }

const SimConfig& Warehouse::sim_config() const {
  MDW_CHECK(backend_->kind() == BackendKind::kSimulated,
            "sim_config() needs BackendKind::kSimulated, but this "
            "warehouse runs the materialized backend");
  return static_cast<const SimulatedBackend*>(backend_.get())->config();
}

PlanCache::Stats Warehouse::plan_cache_stats() const {
  return plan_cache_ == nullptr ? PlanCache::Stats{} : plan_cache_->stats();
}

}  // namespace mdw
