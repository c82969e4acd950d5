// Parity, determinism and confinement tests for the fragment-clustered
// storage layout and the partition-parallel MDHF executor:
//   full scan == bitmap path == MDHF(serial) == MDHF(parallel)
// across worker counts, seeds, and the APB-1 query sweep, with
// bit-identical MdhfExecution counters at any parallel degree.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

// Every APB-1 query type with values valid on the tiny schema (12 months,
// 4 quarters, 24 groups, 96 codes, 40 stores), plus IN-list and
// unsupported shapes.
std::vector<StarQuery> QuerySweep() {
  std::vector<StarQuery> queries;
  for (std::int64_t month : {0, 3, 11}) {
    for (std::int64_t group : {0, 7, 23}) {
      queries.push_back(apb1_queries::OneMonthOneGroup(month, group));
    }
  }
  for (std::int64_t month : {1, 5}) {
    queries.push_back(apb1_queries::OneMonth(month));
  }
  for (std::int64_t code : {0, 30, 95}) {
    queries.push_back(apb1_queries::OneCode(code));
  }
  for (std::int64_t quarter : {0, 2}) {
    queries.push_back(apb1_queries::OneQuarter(quarter));
  }
  queries.push_back(apb1_queries::OneCodeOneMonth(30, 3));
  queries.push_back(apb1_queries::OneCodeOneQuarter(30, 2));
  queries.push_back(apb1_queries::OneStore(17));
  queries.push_back(apb1_queries::OneGroupOneStore(7, 17));
  queries.push_back(
      StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                            {kApb1Time, 2, {0, 6}}}));
  return queries;
}

// ---------------------------------------------------------------------------
// Clustered layout integrity

TEST(ClusteredLayoutTest, DirectoryPartitionsAllRows) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation& f = wh.cluster_fragmentation();
  std::int64_t covered = 0;
  for (FragId id = 0; id < f.FragmentCount(); ++id) {
    const auto [begin, end] = wh.FragmentRows(id);
    ASSERT_LE(begin, end);
    if (id > 0) {
      ASSERT_EQ(begin, wh.FragmentRows(id - 1).second);
    }
    covered += end - begin;
  }
  EXPECT_EQ(wh.FragmentRows(0).first, 0);
  EXPECT_EQ(covered, wh.row_count());
}

TEST(ClusteredLayoutTest, EveryRowLiesInItsFragmentRange) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation& f = wh.cluster_fragmentation();
  const int dims = wh.schema().num_dimensions();
  std::vector<std::int64_t> leaf(static_cast<std::size_t>(dims));
  for (FragId id = 0; id < f.FragmentCount(); ++id) {
    const auto [begin, end] = wh.FragmentRows(id);
    for (std::int64_t row = begin; row < end; ++row) {
      for (DimId d = 0; d < dims; ++d) {
        leaf[static_cast<std::size_t>(d)] =
            wh.facts().columns[static_cast<std::size_t>(d)]
                              [static_cast<std::size_t>(row)];
      }
      ASSERT_EQ(f.FragmentOfRow(leaf), id) << "row " << row;
    }
  }
}

TEST(ClusteredLayoutTest, PermutationPreservesAggregates) {
  // Clustering permutes rows but never changes the data: full scans of the
  // clustered warehouse and the single-fragment one (which keeps
  // generation order) agree for the same seed.
  const MiniWarehouse clustered(MakeTinyApb1Schema(), /*seed=*/42,
                                MonthGroup());
  const MiniWarehouse generation(MakeTinyApb1Schema(), /*seed=*/42, {});
  ASSERT_EQ(clustered.row_count(), generation.row_count());
  for (const auto& query : QuerySweep()) {
    EXPECT_EQ(clustered.ExecuteFullScan(query),
              generation.ExecuteFullScan(query))
        << query.name();
  }
}

TEST(ClusteredLayoutTest, EmptyAttributeListIsSingleFragmentClustering) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, {});
  EXPECT_EQ(wh.cluster_fragmentation().FragmentCount(), 1);
  const auto [begin, end] = wh.FragmentRows(0);
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, wh.row_count());
}

// ---------------------------------------------------------------------------
// Parity: full scan == bitmaps == MDHF(serial) == MDHF(parallel), across
// worker counts and seeds, over the whole query sweep.

class ParitySweep : public ::testing::TestWithParam<
                        std::tuple<std::uint64_t /*seed*/, int /*workers*/>> {};

TEST_P(ParitySweep, AllFourPathsAgree) {
  const auto [seed, workers] = GetParam();
  const Warehouse warehouse({.schema = MakeTinyApb1Schema(),
                             .fragmentation = MonthGroup(),
                             .backend = BackendKind::kMaterialized,
                             .seed = seed,
                             .num_workers = workers});
  const MiniWarehouse& mini = *warehouse.materialized();
  for (const auto& query : QuerySweep()) {
    const auto expected = mini.ExecuteFullScan(query);
    EXPECT_EQ(mini.ExecuteWithBitmaps(query), expected) << query.name();
    const auto outcome = warehouse.Execute(query);
    ASSERT_TRUE(outcome.aggregate.has_value()) << query.name();
    EXPECT_EQ(*outcome.aggregate, expected)
        << query.name() << " seed=" << seed << " workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByWorkers, ParitySweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 42, 123),
                       ::testing::Values(1, 2, 8)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism: the ENTIRE MdhfExecution record (aggregates and counters)
// is identical at any worker count, under any clustering.

TEST(ParallelDeterminismTest, IdenticalExecutionRecordAtAnyWorkerCount) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation frag(&wh.schema(), MonthGroup());
  const QueryPlanner planner(&wh.schema(), &frag);
  const ThreadPool pool2(2), pool8(8);
  for (const auto& query : QuerySweep()) {
    const auto plan = planner.Plan(query);
    const auto serial = wh.ExecuteWithPlan(query, plan);
    EXPECT_EQ(wh.ExecuteWithPlan(query, plan, &pool2), serial)
        << query.name();
    EXPECT_EQ(wh.ExecuteWithPlan(query, plan, &pool8), serial)
        << query.name();
    EXPECT_EQ(serial.result, wh.ExecuteFullScan(query)) << query.name();
  }
}

TEST(ParallelDeterminismTest, StoreClusteringIsDeterministicToo) {
  // A store-clustered layout leaves most of the sweep unsupported or
  // bitmap-filtered (every fragment scanned); it must agree with the
  // serial run and the full scan at any worker count.
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42,
                         {{kApb1Customer, 1}});
  const Fragmentation& store_frag = wh.cluster_fragmentation();
  const QueryPlanner planner(&wh.schema(), &store_frag);
  const ThreadPool pool8(8);
  for (const auto& query : QuerySweep()) {
    const auto plan = planner.Plan(query);
    const auto serial = wh.ExecuteWithPlan(query, plan);
    EXPECT_EQ(wh.ExecuteWithPlan(query, plan, &pool8), serial)
        << query.name();
    EXPECT_EQ(serial.result, wh.ExecuteFullScan(query)) << query.name();
  }
}

// ---------------------------------------------------------------------------
// Fragment confinement: the clustered fast path scans exactly the plan's
// fragment row ranges, not the table.

TEST(FragmentConfinementTest, ScansOnlyThePlansRowRanges) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation frag(&wh.schema(), MonthGroup());
  const QueryPlanner planner(&wh.schema(), &frag);

  const auto q1 = apb1_queries::OneMonthOneGroup(3, 7);
  const auto plan = planner.Plan(q1);
  ASSERT_EQ(plan.FragmentCount(), 1);
  const auto exec = wh.ExecuteWithPlan(q1, plan);
  std::int64_t expected_rows = 0;
  plan.ForEachFragment([&](FragId id) {
    const auto [begin, end] = wh.FragmentRows(id);
    expected_rows += end - begin;
  });
  // Hierarchy-aligned (IOC1-opt): the single fragment is fully covered,
  // so it is answered from the prefix sums without scanning a row.
  EXPECT_EQ(exec.rows_scanned, 0);
  EXPECT_EQ(exec.rows_summarized, expected_rows);
  EXPECT_EQ(exec.fragments_summarized, 1);
  EXPECT_LT(exec.rows_summarized, wh.row_count());
  // IOC1-opt: every row of the fragment is a hit.
  EXPECT_EQ(exec.rows_summarized, exec.result.rows);
}

TEST(FragmentConfinementTest, RowsAccountedShrinkWithSelectivity) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation frag(&wh.schema(), MonthGroup());
  const QueryPlanner planner(&wh.schema(), &frag);

  const auto month = apb1_queries::OneMonth(3);           // 24 fragments
  const auto month_group = apb1_queries::OneMonthOneGroup(3, 7);  // 1
  const auto unsupported = apb1_queries::OneStore(17);    // all fragments

  const auto e_month = wh.ExecuteWithPlan(month, planner.Plan(month));
  const auto e_mg = wh.ExecuteWithPlan(month_group, planner.Plan(month_group));
  const auto e_all = wh.ExecuteWithPlan(unsupported, planner.Plan(unsupported));

  // Confinement: the rows a query accounts for (scanned or summarized)
  // track its fragment set.
  const auto accounted = [](const MiniWarehouse::MdhfExecution& e) {
    return e.rows_scanned + e.rows_summarized;
  };
  EXPECT_EQ(accounted(e_all), wh.row_count());
  EXPECT_LT(accounted(e_month), accounted(e_all));
  EXPECT_LT(accounted(e_mg), accounted(e_month));
  // The store predicate is outside the fragmentation, so nothing is
  // coverable; the hierarchy-aligned queries summarize everything.
  EXPECT_EQ(e_all.rows_summarized, 0);
  EXPECT_EQ(e_month.rows_scanned, 0);
  EXPECT_EQ(e_mg.rows_scanned, 0);
}

TEST(FragmentConfinementTest, SummariesAccountForExactlyTheRowsTheyReplace) {
  // rows_scanned semantics must not change with summaries: with them on,
  // the summarized rows account exactly for the rows the summary-free
  // store scans, and the aggregates agree with each other and the oracle.
  const MiniWarehouse clustered(MakeTinyApb1Schema(), /*seed=*/42,
                                MonthGroup());
  const MiniWarehouse plain(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup(),
                            /*enable_summaries=*/false);
  const QueryPlanner pc(&clustered.schema(),
                        &clustered.cluster_fragmentation());
  const QueryPlanner pp(&plain.schema(), &plain.cluster_fragmentation());
  for (const auto& query : QuerySweep()) {
    const auto a = clustered.ExecuteWithPlan(query, pc.Plan(query));
    const auto p = plain.ExecuteWithPlan(query, pp.Plan(query));
    EXPECT_EQ(p.result, plain.ExecuteFullScan(query)) << query.name();
    EXPECT_EQ(a.result, p.result) << query.name();
    EXPECT_EQ(a.rows_scanned + a.rows_summarized, p.rows_scanned)
        << query.name();
    EXPECT_EQ(a.fragments_processed, p.fragments_processed) << query.name();
    EXPECT_EQ(p.fragments_summarized, 0) << query.name();
    EXPECT_EQ(p.rows_summarized, 0) << query.name();
  }
}

// ---------------------------------------------------------------------------
// Parallel batches through the façade.

TEST(ParallelBatchTest, BatchOutcomeIndependentOfWorkerCount) {
  const auto queries = QuerySweep();
  const Warehouse serial({.schema = MakeTinyApb1Schema(),
                          .fragmentation = MonthGroup(),
                          .backend = BackendKind::kMaterialized,
                          .seed = 42,
                          .num_workers = 1});
  const Warehouse parallel({.schema = MakeTinyApb1Schema(),
                            .fragmentation = MonthGroup(),
                            .backend = BackendKind::kMaterialized,
                            .seed = 42,
                            .num_workers = 8});
  const auto a = serial.ExecuteBatch(queries);
  const auto b = parallel.ExecuteBatch(queries);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  ASSERT_TRUE(a.total_aggregate.has_value());
  ASSERT_TRUE(b.total_aggregate.has_value());
  EXPECT_EQ(*a.total_aggregate, *b.total_aggregate);
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(*a.queries[i].aggregate, *b.queries[i].aggregate)
        << queries[i].name();
    EXPECT_EQ(a.queries[i].rows_scanned, b.queries[i].rows_scanned)
        << queries[i].name();
  }
}

TEST(ParallelBatchTest, BatchMatchesPerQueryExecution) {
  const auto queries = QuerySweep();
  const Warehouse wh({.schema = MakeTinyApb1Schema(),
                      .fragmentation = MonthGroup(),
                      .backend = BackendKind::kMaterialized,
                      .seed = 42,
                      .num_workers = 4});
  const auto batch = wh.ExecuteBatch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(*batch.queries[i].aggregate, *wh.Execute(queries[i]).aggregate)
        << queries[i].name();
  }
}

}  // namespace
}  // namespace mdw
