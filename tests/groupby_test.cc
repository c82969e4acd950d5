// Grouped-aggregation tests: parity of MDHF grouped execution against the
// brute-force grouped full scan across seeds x shards x workers x
// summaries (RAM and file-backed), coverage accounting of aligned vs
// non-aligned groupings, rollup consistency across hierarchy levels,
// deterministic top-k, the plan-cache signature extension, and the SQL
// round trip through Warehouse::ExecuteSql.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/mini_warehouse.h"
#include "core/result_table.h"
#include "core/warehouse.h"
#include "fragment/plan_cache.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"
#include "workload/query_parser.h"

namespace mdw {
namespace {

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

// Grouped shapes spanning every coverage class: group at the
// fragmentation level (time.month, product.group), above it (time.quarter,
// time.year), below it (product.class), and on a non-fragmentation
// dimension (customer.store, channel.channel); predicates range from
// hierarchy-aligned (covered fragments) to residual and absent.
std::vector<StarQuery> GroupedSweep() {
  std::vector<StarQuery> queries;
  queries.push_back(
      apb1_queries::OneQuarter(2).WithGroupBy({kApb1Time, 2}));
  queries.push_back(StarQuery("ALL_BY_MONTH", {}).WithGroupBy({kApb1Time, 2}));
  queries.push_back(StarQuery("ALL_BY_QUARTER", {}).WithGroupBy({kApb1Time, 1}));
  queries.push_back(StarQuery("ALL_BY_YEAR", {}).WithGroupBy({kApb1Time, 0}));
  queries.push_back(
      apb1_queries::OneMonth(5).WithGroupBy({kApb1Product, 3}));
  queries.push_back(
      apb1_queries::OneQuarter(1).WithGroupBy({kApb1Product, 4}));
  queries.push_back(
      apb1_queries::OneMonthOneGroup(3, 7).WithGroupBy({kApb1Product, 5}));
  queries.push_back(
      apb1_queries::OneMonth(5).WithGroupBy({kApb1Customer, 1}));
  queries.push_back(
      apb1_queries::OneStore(17).WithGroupBy({kApb1Channel, 0}));
  queries.push_back(StarQuery("IN_BY_GROUP",
                              {{kApb1Product, 5, {1, 2, 50}},
                               {kApb1Time, 2, {0, 6}}})
                        .WithGroupBy({kApb1Product, 3}));
  return queries;
}

/// mkdtemp directory removed (recursively) when the guard dies.
class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TEST_TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/mdw_groupby_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* got = ::mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Warehouse MakeFacade(int shards, int workers, std::uint64_t seed = 42,
                     bool summaries = true, std::string storage_path = {}) {
  WarehouseConfig cfg{.schema = MakeTinyApb1Schema()};
  cfg.fragmentation = MonthGroup();
  cfg.backend = BackendKind::kMaterialized;
  cfg.seed = seed;
  cfg.num_workers = workers;
  cfg.num_shards = shards;
  cfg.enable_fragment_summaries = summaries;
  cfg.storage_path = std::move(storage_path);
  return Warehouse(std::move(cfg));
}

/// Grouped keys/counts/sums must match the ground truth exactly;
/// rows_summarized is coverage accounting, checked separately (the full
/// scan never summarizes).
void ExpectSameGroups(const std::vector<GroupRow>& expected,
                      const std::vector<GroupRow>& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].key, actual[i].key) << label << " row " << i;
    EXPECT_EQ(expected[i].rows, actual[i].rows) << label << " row " << i;
    EXPECT_EQ(expected[i].units_sold, actual[i].units_sold)
        << label << " row " << i;
    EXPECT_EQ(expected[i].dollar_sales_cents, actual[i].dollar_sales_cents)
        << label << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// Parity + determinism: grouped MDHF execution == brute-force grouped
// full scan, bit-identical at seeds {7, 42, 123} x shards {1, 4} x
// workers {1, 2, 8} x summaries {on, off}.

class GroupByParitySweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t /*seed*/, int /*shards*/, int /*workers*/,
                     bool /*summaries*/>> {};

TEST_P(GroupByParitySweep, GroupedExecutionMatchesBruteForce) {
  const auto [seed, shards, workers, summaries] = GetParam();
  const Warehouse wh = MakeFacade(shards, workers, seed, summaries);
  const Warehouse reference = MakeFacade(1, 1, seed, summaries);
  const MiniWarehouse& mini = *wh.materialized();
  for (const auto& query : GroupedSweep()) {
    const auto expected = mini.ExecuteFullScanGrouped(query);
    const auto outcome = wh.Execute(query);
    ASSERT_TRUE(outcome.status.ok()) << query.name();
    ASSERT_TRUE(outcome.table.has_value()) << query.name();
    ExpectSameGroups(expected, outcome.table->rows, query.name());

    // Bit-identical record at any worker x shard count: the whole table
    // (rows_summarized included) equals the serial unsharded run.
    const auto ref = reference.Execute(query);
    ASSERT_TRUE(ref.table.has_value()) << query.name();
    EXPECT_EQ(*outcome.table, *ref.table) << query.name();

    // The group rows partition the execution-wide counters: row counts
    // sum to the scalar aggregate's, rows_summarized to the counter.
    ASSERT_TRUE(outcome.aggregate.has_value()) << query.name();
    std::int64_t rows = 0, units = 0, dollars = 0, summarized = 0;
    for (const auto& g : outcome.table->rows) {
      rows += g.rows;
      units += g.units_sold;
      dollars += g.dollar_sales_cents;
      summarized += g.rows_summarized;
    }
    EXPECT_EQ(rows, outcome.aggregate->rows) << query.name();
    EXPECT_EQ(units, outcome.aggregate->units_sold) << query.name();
    EXPECT_EQ(dollars, outcome.aggregate->dollar_sales_cents) << query.name();
    EXPECT_EQ(summarized, outcome.rows_summarized) << query.name();
    if (!summaries) {
      EXPECT_EQ(summarized, 0) << query.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShardsByWorkersBySummaries, GroupByParitySweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 42, 123),
                       ::testing::Values(1, 4), ::testing::Values(1, 2, 8),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_sum" : "_scan");
    });

// File-backed parity: the paged store answers grouped queries with the
// byte-identical table the RAM store produces.
TEST(GroupByPagedTest, FileBackedTablesMatchRam) {
  TempDir dir;
  const Warehouse ram = MakeFacade(4, 8);
  const Warehouse paged = MakeFacade(4, 8, /*seed=*/42, /*summaries=*/true,
                                     dir.path());
  for (const auto& query : GroupedSweep()) {
    const auto r = ram.Execute(query);
    const auto p = paged.Execute(query);
    ASSERT_TRUE(r.table.has_value()) << query.name();
    ASSERT_TRUE(p.table.has_value()) << query.name();
    EXPECT_EQ(*r.table, *p.table) << query.name();
    // The paged brute-force reference agrees too (cursor-driven scan).
    ExpectSameGroups(paged.materialized()->ExecuteFullScanGrouped(query),
                     p.table->rows, query.name());
  }
}

// ---------------------------------------------------------------------------
// Coverage accounting: fragmentation-aligned groupings answer from the
// prefix sums alone; non-aligned groupings force the scan path.

TEST(GroupByCoverageTest, AlignedGroupByAnswersFromSummariesAlone) {
  const Warehouse wh = MakeFacade(4, 8);
  // Groups at and above the time fragmentation level, with a
  // hierarchy-aligned predicate: every fragment is fully covered.
  for (const Depth depth : {Depth{2}, Depth{1}}) {
    const auto query =
        apb1_queries::OneQuarter(2).WithGroupBy({kApb1Time, depth});
    const auto outcome = wh.Execute(query);
    ASSERT_TRUE(outcome.table.has_value());
    EXPECT_FALSE(outcome.table->rows.empty());
    EXPECT_EQ(outcome.rows_scanned, 0) << "depth " << depth;
    EXPECT_GT(outcome.rows_summarized, 0) << "depth " << depth;
    EXPECT_EQ(outcome.fragments_summarized, outcome.fragments_processed)
        << "depth " << depth;
  }
}

TEST(GroupByCoverageTest, BelowLevelGroupingForcesTheScanPath) {
  const Warehouse wh = MakeFacade(4, 8);
  // product.class sits below the product fragmentation level: per-group
  // partials need the fact rows, so nothing is summarized even though the
  // same predicate WITHOUT grouping is fully covered.
  const auto grouped =
      wh.Execute(apb1_queries::OneQuarter(2).WithGroupBy({kApb1Product, 4}));
  EXPECT_EQ(grouped.rows_summarized, 0);
  EXPECT_EQ(grouped.fragments_summarized, 0);
  EXPECT_GT(grouped.rows_scanned, 0);
  const auto scalar = wh.Execute(apb1_queries::OneQuarter(2));
  EXPECT_EQ(scalar.rows_scanned, 0);
  EXPECT_EQ(scalar.fragments_summarized, scalar.fragments_processed);
  // Both read the same rows.
  ASSERT_TRUE(grouped.aggregate.has_value());
  ASSERT_TRUE(scalar.aggregate.has_value());
  EXPECT_EQ(*grouped.aggregate, *scalar.aggregate);
}

TEST(GroupByCoverageTest, UngroupedTableIsTheDegenerateZeroGroupRow) {
  const Warehouse wh = MakeFacade(4, 8);
  const auto query = apb1_queries::OneMonthOneGroup(3, 7);
  const auto outcome = wh.Execute(query);
  ASSERT_TRUE(outcome.table.has_value());
  ASSERT_TRUE(outcome.aggregate.has_value());
  ASSERT_EQ(outcome.table->rows.size(), 1u);
  const GroupRow& row = outcome.table->rows[0];
  EXPECT_EQ(row.key, 0);
  EXPECT_EQ(row.rows, outcome.aggregate->rows);
  EXPECT_EQ(row.units_sold, outcome.aggregate->units_sold);
  EXPECT_EQ(row.dollar_sales_cents, outcome.aggregate->dollar_sales_cents);
  EXPECT_EQ(row.rows_summarized, outcome.rows_summarized);
  EXPECT_FALSE(outcome.table->group_by.has_value());
}

// ---------------------------------------------------------------------------
// Rollup: grouping at a coarser level L equals re-grouping the level-(L+1)
// table by the hierarchy's ancestor mapping (drill-down inverse).

void ExpectRollupConsistent(const Warehouse& wh, const StarQuery& base,
                            DimId dim, Depth coarse) {
  const auto& h = wh.schema().dimension(dim).hierarchy();
  const std::int64_t ratio =
      h.Cardinality(coarse + 1) / h.Cardinality(coarse);
  const auto fine = wh.Execute(base.WithGroupBy({dim, coarse + 1}));
  const auto rolled = wh.Execute(base.WithGroupBy({dim, coarse}));
  ASSERT_TRUE(fine.table.has_value());
  ASSERT_TRUE(rolled.table.has_value());
  std::map<std::int64_t, GroupRow> regrouped;
  for (const auto& g : fine.table->rows) {
    GroupRow& r = regrouped[g.key / ratio];
    r.key = g.key / ratio;
    r.rows += g.rows;
    r.units_sold += g.units_sold;
    r.dollar_sales_cents += g.dollar_sales_cents;
  }
  std::vector<GroupRow> expected;
  for (const auto& [key, row] : regrouped) expected.push_back(row);
  ExpectSameGroups(expected, rolled.table->rows,
                   base.name() + " dim " + std::to_string(dim) + " depth " +
                       std::to_string(coarse));
}

TEST(GroupByRollupTest, RollupEqualsRegroupingOfTheFinerLevel) {
  const Warehouse wh = MakeFacade(4, 8);
  const auto all = StarQuery("ALL", {});
  // Time: month -> quarter -> year spans the fragmentation level; product
  // family -> group and group -> class cross it.
  ExpectRollupConsistent(wh, all, kApb1Time, 1);
  ExpectRollupConsistent(wh, all, kApb1Time, 0);
  ExpectRollupConsistent(wh, all, kApb1Product, 2);
  ExpectRollupConsistent(wh, all, kApb1Product, 3);
  ExpectRollupConsistent(wh, apb1_queries::OneQuarter(2), kApb1Product, 2);
  ExpectRollupConsistent(wh, apb1_queries::OneStore(17), kApb1Time, 1);
}

// ---------------------------------------------------------------------------
// Top-k: ORDER BY ... LIMIT k is exactly the k-prefix of the fully sorted
// table, with deterministic ascending-key tie-breaks.

TEST(TopKTest, TopKEqualsThePrefixOfTheSortedTable) {
  const Warehouse wh = MakeFacade(4, 8);
  const auto base = apb1_queries::OneQuarter(2).WithGroupBy({kApb1Product, 3});
  const auto specs = std::vector<AggregateSpec>{
      AggregateSpec::Default(),
      {{{AggFn::kCount, MeasureId::kUnitsSold},
        {AggFn::kAvg, MeasureId::kDollarSales}}}};
  for (const auto& spec : specs) {
    for (const bool descending : {false, true}) {
      for (int item = 0; item < 2; ++item) {
        const auto sorted = wh.Execute(base.WithAggregates(spec).WithOrderBy(
            {item, descending, /*limit=*/0}));
        ASSERT_TRUE(sorted.table.has_value());
        for (const std::int64_t k : {std::int64_t{1}, std::int64_t{3},
                                     std::int64_t{5}, std::int64_t{1000}}) {
          const auto topk = wh.Execute(base.WithAggregates(spec).WithOrderBy(
              {item, descending, k}));
          ASSERT_TRUE(topk.table.has_value());
          std::vector<GroupRow> prefix = sorted.table->rows;
          if (k < static_cast<std::int64_t>(prefix.size())) {
            prefix.resize(static_cast<std::size_t>(k));
          }
          EXPECT_EQ(topk.table->rows, prefix)
              << "item " << item << " desc " << descending << " k " << k;
        }
      }
    }
  }
}

TEST(TopKTest, TiesBreakOnAscendingGroupKey) {
  // Hand-built partials with deliberate ties: MakeResultTable must order
  // tied groups by ascending key whatever the sort direction.
  const AggregateSpec spec = AggregateSpec::Default();
  std::vector<GroupRow> rows;
  rows.push_back({0, 2, 10, 100, 0});
  rows.push_back({1, 2, 30, 100, 0});
  rows.push_back({2, 2, 10, 100, 0});
  rows.push_back({3, 2, 30, 100, 0});
  rows.push_back({4, 2, 20, 100, 0});
  const auto desc = MakeResultTable(spec, GroupBy{kApb1Product, 3},
                                    OrderBy{0, true, 0}, rows);
  std::vector<std::int64_t> keys;
  for (const auto& g : desc.rows) keys.push_back(g.key);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{1, 3, 4, 0, 2}));
  const auto asc2 = MakeResultTable(spec, GroupBy{kApb1Product, 3},
                                    OrderBy{0, false, 2}, rows);
  keys.clear();
  for (const auto& g : asc2.rows) keys.push_back(g.key);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{0, 2}));
  // Item 1 (dollar sums) is all-tied: any direction degenerates to
  // ascending key order.
  const auto tied = MakeResultTable(spec, GroupBy{kApb1Product, 3},
                                    OrderBy{1, true, 3}, rows);
  keys.clear();
  for (const auto& g : tied.rows) keys.push_back(g.key);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{0, 1, 2}));
}

TEST(TopKTest, AvgOrderingUsesExactArithmetic) {
  // 7/2 = 3.5 vs 10/3 = 3.33..: exact cross-multiplication must rank the
  // first higher even though both round to 3 in integer division.
  const AggregateSpec spec{{{AggFn::kAvg, MeasureId::kUnitsSold}}};
  std::vector<GroupRow> rows;
  rows.push_back({0, 3, 10, 0, 0});
  rows.push_back({1, 2, 7, 0, 0});
  const auto t = MakeResultTable(spec, GroupBy{kApb1Product, 3},
                                 OrderBy{0, true, 0}, rows);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0].key, 1);
  EXPECT_EQ(t.rows[1].key, 0);
  EXPECT_DOUBLE_EQ(t.Value(0, 0), 3.5);
}

// ---------------------------------------------------------------------------
// Plan-cache signature: the aggregate list and grouping are part of a
// query's identity; ORDER BY / LIMIT are post-aggregation and are not.

TEST(GroupBySignatureTest, AggregatesAndGroupingSeparateSignatures) {
  const auto base = apb1_queries::OneQuarter(2);
  std::set<std::string> signatures;
  signatures.insert(CanonicalQuerySignature(base));
  signatures.insert(
      CanonicalQuerySignature(base.WithGroupBy({kApb1Time, 2})));
  signatures.insert(
      CanonicalQuerySignature(base.WithGroupBy({kApb1Time, 1})));
  signatures.insert(
      CanonicalQuerySignature(base.WithGroupBy({kApb1Product, 3})));
  signatures.insert(CanonicalQuerySignature(base.WithAggregates(
      {{{AggFn::kCount, MeasureId::kUnitsSold}}})));
  signatures.insert(CanonicalQuerySignature(base.WithAggregates(
      {{{AggFn::kAvg, MeasureId::kDollarSales}}})));
  // Six distinct identities: no collisions.
  EXPECT_EQ(signatures.size(), 6u);

  // The explicit default spec IS the historic implicit one.
  EXPECT_EQ(CanonicalQuerySignature(base),
            CanonicalQuerySignature(
                base.WithAggregates(AggregateSpec::Default())));

  // ORDER BY ... LIMIT never changes the plan, so it never changes the
  // signature — top-k variants share one cache entry.
  const auto grouped = base.WithGroupBy({kApb1Product, 3});
  EXPECT_EQ(CanonicalQuerySignature(grouped),
            CanonicalQuerySignature(grouped.WithOrderBy({1, true, 5})));
}

// ---------------------------------------------------------------------------
// SQL round trip: ExecuteSql == Execute of the hand-built equivalent.

TEST(GroupBySqlTest, SqlRoundTripMatchesHandBuiltQueries) {
  const Warehouse wh = MakeFacade(4, 8);
  const struct {
    const char* sql;
    StarQuery query;
  } cases[] = {
      {"SELECT SUM(UnitsSold), SUM(DollarSales) FROM tiny_sales "
       "WHERE time.quarter = 2 GROUP BY product.group",
       apb1_queries::OneQuarter(2).WithGroupBy({kApb1Product, 3})},
      {"SELECT SUM(DollarSales) FROM tiny_sales WHERE time.month = 5 "
       "GROUP BY customer.store ORDER BY 1 DESC LIMIT 5",
       apb1_queries::OneMonth(5)
           .WithAggregates({{{AggFn::kSum, MeasureId::kDollarSales}}})
           .WithGroupBy({kApb1Customer, 1})
           .WithOrderBy({0, true, 5})},
      {"SELECT COUNT(*), AVG(DollarSales) FROM tiny_sales "
       "GROUP BY time.quarter ORDER BY AVG(DollarSales)",
       StarQuery("ALL", {})
           .WithAggregates({{{AggFn::kCount, MeasureId::kUnitsSold},
                             {AggFn::kAvg, MeasureId::kDollarSales}}})
           .WithGroupBy({kApb1Time, 1})
           .WithOrderBy({1, false, 0})},
  };
  for (const auto& c : cases) {
    const auto via_sql = wh.ExecuteSql(c.sql);
    ASSERT_TRUE(via_sql.ok()) << c.sql << " -> " << via_sql.status().message();
    const auto direct = wh.Execute(c.query);
    ASSERT_TRUE(via_sql->table.has_value()) << c.sql;
    ASSERT_TRUE(direct.table.has_value()) << c.sql;
    EXPECT_EQ(*via_sql->table, *direct.table) << c.sql;
    EXPECT_EQ(via_sql->rows_scanned, direct.rows_scanned) << c.sql;
    EXPECT_EQ(via_sql->rows_summarized, direct.rows_summarized) << c.sql;
  }
}

TEST(GroupBySqlTest, MalformedSqlReturnsInvalidArgument) {
  const Warehouse wh = MakeFacade(1, 1);
  const auto bad =
      wh.ExecuteSql("SELECT SUM(UnitsSold) FROM tiny_sales GROUP BY time");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const auto worse = wh.ExecuteSql("DROP TABLE tiny_sales");
  ASSERT_FALSE(worse.ok());
  EXPECT_EQ(worse.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mdw
