// Sharded-store tests: layout integrity of the shard-major clustered
// warehouse (contiguous shard regions, allocation-driven fragment
// placement), full parity of sharded execution against the unsharded
// store and full-scan ground truth across shard counts x workers x
// seeds, determinism of the whole execution record (per-shard counters
// included) at any worker count, and the skew metric.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "alloc/disk_allocation.h"
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

// A reduced APB-1 sweep: hierarchy-aligned (fully covered), residual,
// unsupported, multi-fragment and IN-list shapes.
std::vector<StarQuery> QuerySweep() {
  std::vector<StarQuery> queries;
  queries.push_back(apb1_queries::OneMonthOneGroup(3, 7));
  queries.push_back(apb1_queries::OneMonth(5));
  queries.push_back(apb1_queries::OneQuarter(2));
  queries.push_back(apb1_queries::OneCode(30));
  queries.push_back(apb1_queries::OneCodeOneMonth(30, 3));
  queries.push_back(apb1_queries::OneStore(17));
  queries.push_back(apb1_queries::OneGroupOneStore(7, 17));
  queries.push_back(StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                                          {kApb1Time, 2, {0, 6}}}));
  return queries;
}

MiniWarehouse MakeSharded(int num_shards, std::uint64_t seed = 42,
                          AllocationConfig allocation = {}) {
  return MiniWarehouse(MakeTinyApb1Schema(), seed, MonthGroup(),
                       /*enable_summaries=*/true, num_shards, allocation);
}

// ---------------------------------------------------------------------------
// Shard layout integrity

TEST(ShardedLayoutTest, ShardRegionsTileTheTable) {
  const MiniWarehouse wh = MakeSharded(4);
  ASSERT_EQ(wh.num_shards(), 4);
  std::int64_t covered = 0;
  for (int s = 0; s < wh.num_shards(); ++s) {
    const auto [begin, end] = wh.ShardRows(s);
    ASSERT_LE(begin, end);
    if (s > 0) {
      ASSERT_EQ(begin, wh.ShardRows(s - 1).second);
    }
    covered += end - begin;
  }
  EXPECT_EQ(wh.ShardRows(0).first, 0);
  EXPECT_EQ(covered, wh.row_count());
}

TEST(ShardedLayoutTest, FragmentRangesTileTheirShardInAscendingIdOrder) {
  const MiniWarehouse wh = MakeSharded(4);
  std::set<FragId> seen;
  for (int s = 0; s < wh.num_shards(); ++s) {
    const auto [shard_begin, shard_end] = wh.ShardRows(s);
    std::int64_t cursor = shard_begin;
    FragId prev = -1;
    for (const FragId f : wh.ShardFragments(s)) {
      EXPECT_GT(f, prev);
      prev = f;
      EXPECT_EQ(wh.ShardOfFragment(f), s);
      const auto [begin, end] = wh.FragmentRows(f);
      ASSERT_EQ(begin, cursor) << "fragment " << f;
      cursor = end;
      seen.insert(f);
    }
    EXPECT_EQ(cursor, shard_end);
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()),
            wh.cluster_fragmentation().FragmentCount());
}

TEST(ShardedLayoutTest, ShardPlacementMatchesTheDiskAllocation) {
  AllocationConfig allocation;
  allocation.round_gap = 1;
  const MiniWarehouse wh = MakeSharded(4, /*seed=*/42, allocation);
  ASSERT_NE(wh.shard_allocation(), nullptr);
  EXPECT_EQ(wh.shard_allocation()->num_disks(), 4);
  EXPECT_EQ(wh.shard_allocation()->config().round_gap, 1);
  for (FragId f = 0; f < wh.cluster_fragmentation().FragmentCount(); ++f) {
    EXPECT_EQ(wh.ShardOfFragment(f), wh.shard_allocation()->DiskOfFragment(f));
  }
}

TEST(ShardedLayoutTest, EveryRowLiesInItsFragmentsShard) {
  const MiniWarehouse wh = MakeSharded(7);
  const Fragmentation& f = wh.cluster_fragmentation();
  const int dims = wh.schema().num_dimensions();
  std::vector<std::int64_t> leaf(static_cast<std::size_t>(dims));
  for (int s = 0; s < wh.num_shards(); ++s) {
    const auto [begin, end] = wh.ShardRows(s);
    for (std::int64_t row = begin; row < end; ++row) {
      for (DimId d = 0; d < dims; ++d) {
        leaf[static_cast<std::size_t>(d)] =
            wh.facts().columns[static_cast<std::size_t>(d)]
                              [static_cast<std::size_t>(row)];
      }
      ASSERT_EQ(wh.ShardOfFragment(f.FragmentOfRow(leaf)), s)
          << "row " << row;
    }
  }
}

TEST(ShardedLayoutTest, UnshardedStoreHasNoAllocationAndOneShard) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  EXPECT_EQ(wh.num_shards(), 1);
  EXPECT_EQ(wh.shard_allocation(), nullptr);
  EXPECT_EQ(wh.ShardRows(0), (std::pair<std::int64_t, std::int64_t>{
                                 0, wh.row_count()}));
}

// ---------------------------------------------------------------------------
// Parity: full scan == unsharded == sharded, at shards {1, 4, 7} x
// workers {1, 2, 8} x seeds {7, 42, 123}.

class ShardedParitySweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t /*seed*/, int /*shards*/, int /*workers*/>> {
};

TEST_P(ShardedParitySweep, ShardingNeverChangesTheAnswer) {
  const auto [seed, shards, workers] = GetParam();
  const Warehouse sharded({.schema = MakeTinyApb1Schema(),
                           .fragmentation = MonthGroup(),
                           .backend = BackendKind::kMaterialized,
                           .seed = seed,
                           .num_workers = workers,
                           .num_shards = shards});
  const Warehouse unsharded({.schema = MakeTinyApb1Schema(),
                             .fragmentation = MonthGroup(),
                             .backend = BackendKind::kMaterialized,
                             .seed = seed,
                             .num_workers = 1});
  const MiniWarehouse& mini = *sharded.materialized();
  ASSERT_EQ(mini.num_shards(), shards);
  for (const auto& query : QuerySweep()) {
    const auto expected = mini.ExecuteFullScan(query);
    const auto outcome = sharded.Execute(query);
    const auto reference = unsharded.Execute(query);
    ASSERT_TRUE(outcome.aggregate.has_value()) << query.name();
    EXPECT_EQ(*outcome.aggregate, expected)
        << query.name() << " seed=" << seed << " shards=" << shards
        << " workers=" << workers;
    // The shard split reclassifies nothing: totals match the unsharded
    // store exactly, counters included.
    EXPECT_EQ(*outcome.aggregate, *reference.aggregate) << query.name();
    EXPECT_EQ(outcome.rows_scanned, reference.rows_scanned) << query.name();
    EXPECT_EQ(outcome.rows_summarized, reference.rows_summarized)
        << query.name();
    EXPECT_EQ(outcome.fragments_summarized, reference.fragments_summarized)
        << query.name();
    // Per-shard counters, present iff sharded, sum to the totals.
    if (shards == 1) {
      EXPECT_TRUE(outcome.shards.empty()) << query.name();
      EXPECT_EQ(outcome.shard_skew, 0) << query.name();
    } else {
      ASSERT_EQ(static_cast<int>(outcome.shards.size()), shards)
          << query.name();
      std::int64_t rows_scanned = 0, rows_summarized = 0, fragments = 0,
                   fragments_summarized = 0;
      for (const auto& w : outcome.shards) {
        rows_scanned += w.rows_scanned;
        rows_summarized += w.rows_summarized;
        fragments += w.fragments;
        fragments_summarized += w.fragments_summarized;
      }
      EXPECT_EQ(rows_scanned, outcome.rows_scanned) << query.name();
      EXPECT_EQ(rows_summarized, outcome.rows_summarized) << query.name();
      EXPECT_EQ(fragments, outcome.fragments_processed) << query.name();
      EXPECT_EQ(fragments_summarized, outcome.fragments_summarized)
          << query.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShardsByWorkers, ShardedParitySweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 42, 123),
                       ::testing::Values(1, 4, 7),
                       ::testing::Values(1, 2, 8)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// Allocation knobs flow through the façade: a gapped allocation places
// fragments differently but answers identically.
TEST(ShardedParitySweep, RoundGapChangesPlacementNotAnswers) {
  AllocationConfig gapped;
  gapped.round_gap = 1;
  const MiniWarehouse plain = MakeSharded(4);
  const MiniWarehouse shifted = MakeSharded(4, /*seed=*/42, gapped);
  bool any_moved = false;
  for (FragId f = 0; f < plain.cluster_fragmentation().FragmentCount();
       ++f) {
    any_moved |= plain.ShardOfFragment(f) != shifted.ShardOfFragment(f);
  }
  EXPECT_TRUE(any_moved);
  const Fragmentation fp(&plain.schema(), MonthGroup());
  const Fragmentation fs(&shifted.schema(), MonthGroup());
  const QueryPlanner pp(&plain.schema(), &fp);
  const QueryPlanner ps(&shifted.schema(), &fs);
  for (const auto& query : QuerySweep()) {
    EXPECT_EQ(plain.ExecuteWithPlan(query, pp.Plan(query)).result,
              shifted.ExecuteWithPlan(query, ps.Plan(query)).result)
        << query.name();
  }
}

// ---------------------------------------------------------------------------
// Determinism: the ENTIRE sharded execution record — per-shard counters
// included — is bit-identical at any worker count.

TEST(ShardedDeterminismTest, IdenticalRecordAtAnyWorkerCount) {
  const MiniWarehouse wh = MakeSharded(4);
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

// ---------------------------------------------------------------------------
// Skew metric

TEST(ShardedSkewTest, BalancedAndDegenerateBounds) {
  const MiniWarehouse wh = MakeSharded(4);
  const Fragmentation frag(&wh.schema(), MonthGroup());
  const QueryPlanner planner(&wh.schema(), &frag);

  // The no-support scan touches every fragment; round robin spreads the
  // rows, so skew is near 1 (and by definition in [1, num_shards]).
  const auto all = apb1_queries::OneStore(17);
  const auto e_all = wh.ExecuteWithPlan(all, planner.Plan(all));
  ASSERT_EQ(static_cast<int>(e_all.shards.size()), 4);
  EXPECT_GE(e_all.ShardSkew(), 1.0);
  EXPECT_LE(e_all.ShardSkew(), 4.0);
  EXPECT_LT(e_all.ShardSkew(), 1.5);

  // A single-fragment query is the degenerate case: all busy-work on one
  // shard, skew == num_shards.
  const auto one = apb1_queries::OneMonthOneGroup(3, 7);
  const auto e_one = wh.ExecuteWithPlan(one, planner.Plan(one));
  EXPECT_DOUBLE_EQ(e_one.ShardSkew(), 4.0);

  // Unsharded records carry no skew.
  const MiniWarehouse flat(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation ff(&flat.schema(), MonthGroup());
  const QueryPlanner fp(&flat.schema(), &ff);
  EXPECT_EQ(flat.ExecuteWithPlan(all, fp.Plan(all)).ShardSkew(), 0);
}

}  // namespace
}  // namespace mdw
