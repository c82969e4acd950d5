// Tests of the plan-first execution pipeline (docs/ARCHITECTURE.md): a
// batch of N queries must cost exactly N QueryPlanner::Plan invocations
// end to end, plan-accepting engine entry points must match their
// plan-internally compatibility overloads, and cached plans must execute
// identically to freshly derived ones on both backends.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"
#include "sim/simulator.h"

namespace mdw {
namespace {

constexpr std::uint64_t kSeed = 42;

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

Warehouse Tiny(BackendKind backend, std::size_t plan_cache_capacity = 256) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = MonthGroup(),
                    .backend = backend,
                    .sim = sim,
                    .seed = kSeed,
                    .plan_cache_capacity = plan_cache_capacity});
}

// Distinct queries, so a cache-enabled warehouse still derives one plan
// per query (no accidental hits hiding a 2N bug as N).
std::vector<StarQuery> DistinctQueries() {
  return {apb1_queries::OneMonthOneGroup(1, 10),
          apb1_queries::OneMonth(5),
          apb1_queries::OneQuarter(2),
          apb1_queries::OneCode(30),
          apb1_queries::OneGroupOneStore(7, 17)};
}

// ---------------------------------------------------------------------------
// The acceptance criterion: N queries -> exactly N plan derivations.

TEST(PlanFirstCountingTest, MaterializedBatchDerivesExactlyOnePlanPerQuery) {
  const Warehouse wh = Tiny(BackendKind::kMaterialized);
  const auto queries = DistinctQueries();
  const auto before = QueryPlanner::LifetimePlanCount();
  wh.ExecuteBatch(queries);
  EXPECT_EQ(QueryPlanner::LifetimePlanCount() - before, queries.size());
}

TEST(PlanFirstCountingTest, SimulatedBatchDerivesExactlyOnePlanPerQuery) {
  const Warehouse wh = Tiny(BackendKind::kSimulated);
  const auto queries = DistinctQueries();
  const auto before = QueryPlanner::LifetimePlanCount();
  wh.ExecuteBatch(queries, /*streams=*/2);
  EXPECT_EQ(QueryPlanner::LifetimePlanCount() - before, queries.size());
}

TEST(PlanFirstCountingTest, SingleExecuteDerivesExactlyOnePlan) {
  for (const auto backend :
       {BackendKind::kMaterialized, BackendKind::kSimulated}) {
    const Warehouse wh = Tiny(backend);
    const auto before = QueryPlanner::LifetimePlanCount();
    wh.Execute(apb1_queries::OneMonthOneGroup(3, 7));
    EXPECT_EQ(QueryPlanner::LifetimePlanCount() - before, 1u)
        << ToString(backend);
  }
}

TEST(PlanFirstCountingTest, CachedRepeatsDeriveNothing) {
  const Warehouse wh = Tiny(BackendKind::kMaterialized);
  const auto q = apb1_queries::OneMonthOneGroup(3, 7);
  wh.Execute(q);  // populates the cache
  const auto before = QueryPlanner::LifetimePlanCount();
  wh.Execute(q);
  wh.ExecuteBatch(std::vector<StarQuery>{q, q, q});
  EXPECT_EQ(QueryPlanner::LifetimePlanCount(), before);
}

// ---------------------------------------------------------------------------
// Plan-accepting engine entry points match the planning overloads.

TEST(PlanFirstEngineTest, MiniWarehousePlanOverloadMatchesOracle) {
  const MiniWarehouse mini(MakeTinyApb1Schema(), kSeed, MonthGroup());
  const Fragmentation frag(&mini.schema(), MonthGroup());
  const QueryPlanner planner(&mini.schema(), &frag);
  for (const auto& q : DistinctQueries()) {
    const auto plan = planner.Plan(q);
    const auto plan_first = mini.ExecuteWithPlan(q, plan);
    ASSERT_TRUE(plan_first.status.ok()) << q.name();
    EXPECT_EQ(plan_first.result, mini.ExecuteFullScan(q)) << q.name();
    EXPECT_EQ(plan_first.fragments_processed, plan.FragmentCount());
    EXPECT_EQ(plan_first.query_class, plan.query_class());
    EXPECT_EQ(plan_first.io_class, plan.io_class());
  }
}

TEST(PlanFirstEngineTest, ForeignFragmentationPlanIsInvalidArgument) {
  // Plans must come from the fragmentation the store is clustered under;
  // any other plan is refused with a typed status, never executed by a
  // membership scan and never an abort.
  const auto mini = std::make_shared<const MiniWarehouse>(
      MakeTinyApb1Schema(), kSeed, MonthGroup());
  const auto foreign = std::make_shared<const Fragmentation>(
      &mini->schema(), std::vector<FragAttr>{{kApb1Customer, 1}});
  const QueryPlanner planner(&mini->schema(), foreign.get());
  const MaterializedBackend backend(mini, foreign, /*num_workers=*/1);
  for (const auto& q : DistinctQueries()) {
    const auto plan = planner.Plan(q);
    const auto exec = mini->ExecuteWithPlan(q, plan);
    EXPECT_EQ(exec.status.code(), StatusCode::kInvalidArgument) << q.name();
    EXPECT_EQ(exec.result, MiniWarehouse::AggregateResult{}) << q.name();
    EXPECT_EQ(exec.rows_scanned, 0) << q.name();
    EXPECT_EQ(exec.rows_summarized, 0) << q.name();
    EXPECT_TRUE(exec.groups.empty()) << q.name();
    EXPECT_EQ(exec.query_class, plan.query_class()) << q.name();

    // Through the backend the refusal surfaces with no aggregate.
    const QueryOutcome outcome = backend.Execute(q, plan);
    EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(outcome.aggregate.has_value()) << q.name();
    EXPECT_FALSE(outcome.table.has_value()) << q.name();
  }
}

TEST(PlanFirstEngineTest, SimulatorPlanOverloadMatchesCompat) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  const auto schema = MakeApb1Schema();
  const Fragmentation frag(&schema, MonthGroup());
  const Simulator simulator(&schema, &frag, sim);
  const QueryPlanner planner(&schema, &frag);

  const std::vector<StarQuery> queries = {
      apb1_queries::OneMonthOneGroup(3, 41), apb1_queries::OneQuarter(2)};
  std::vector<QueryPlan> plans;
  for (const auto& q : queries) plans.push_back(planner.Plan(q));

  const auto compat = simulator.RunSingleUser(queries);
  const auto plan_first = simulator.RunSingleUser(queries, plans);
  EXPECT_EQ(plan_first.avg_response_ms, compat.avg_response_ms);
  EXPECT_EQ(plan_first.disk_ios, compat.disk_ios);
  EXPECT_EQ(plan_first.makespan_ms, compat.makespan_ms);

  const auto compat_mu = simulator.RunMultiUser(queries, 2);
  const auto plan_first_mu = simulator.RunMultiUser(queries, plans, 2);
  EXPECT_EQ(plan_first_mu.makespan_ms, compat_mu.makespan_ms);
  EXPECT_EQ(plan_first_mu.disk_ios, compat_mu.disk_ios);
}

TEST(PlanFirstEngineTest, SimulatorRejectsForeignPlans) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  const auto schema = MakeApb1Schema();
  const Fragmentation month_group(&schema, MonthGroup());
  const Fragmentation month_only(&schema, {{kApb1Time, 2}});
  const Simulator simulator(&schema, &month_group, sim);

  const std::vector<StarQuery> queries = {apb1_queries::OneMonth(3)};
  const std::vector<QueryPlan> foreign = {
      QueryPlanner(&schema, &month_only).Plan(queries[0])};
  EXPECT_DEATH(simulator.RunSingleUser(queries, foreign),
               "different schema or fragmentation");
}

// ---------------------------------------------------------------------------
// Parity: cached plans and fresh plans execute identically.

TEST(PlanFirstParityTest, CachedAndFreshPlansAgreeOnMaterialized) {
  const Warehouse cached = Tiny(BackendKind::kMaterialized);
  const Warehouse fresh =
      Tiny(BackendKind::kMaterialized, /*plan_cache_capacity=*/0);
  for (const auto& q : DistinctQueries()) {
    for (int round = 0; round < 2; ++round) {  // round 2 hits the cache
      const auto a = cached.Execute(q);
      const auto b = fresh.Execute(q);
      ASSERT_TRUE(a.aggregate.has_value()) << q.name();
      EXPECT_EQ(*a.aggregate, *b.aggregate) << q.name();
      EXPECT_EQ(a.rows_scanned, b.rows_scanned) << q.name();
      EXPECT_EQ(a.query_class, b.query_class) << q.name();
      EXPECT_EQ(a.io_class, b.io_class) << q.name();
      EXPECT_EQ(a.fragments_processed, b.fragments_processed) << q.name();
    }
  }
  EXPECT_GT(cached.plan_cache_stats().hits, 0u);
}

TEST(PlanFirstParityTest, CachedAndFreshPlansAgreeOnSimulated) {
  const Warehouse cached = Tiny(BackendKind::kSimulated);
  const Warehouse fresh =
      Tiny(BackendKind::kSimulated, /*plan_cache_capacity=*/0);
  const auto q = apb1_queries::OneMonthOneGroup(3, 7);
  for (int round = 0; round < 2; ++round) {
    const auto a = cached.Execute(q);
    const auto b = fresh.Execute(q);
    ASSERT_TRUE(a.sim.has_value());
    EXPECT_EQ(a.response_ms, b.response_ms);
    EXPECT_EQ(a.sim->disk_ios, b.sim->disk_ios);
    EXPECT_EQ(a.sim->disk_pages, b.sim->disk_pages);
  }
  EXPECT_EQ(cached.plan_cache_stats().hits, 1u);
}

}  // namespace
}  // namespace mdw
