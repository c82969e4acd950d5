#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "core/mini_warehouse.h"
#include "fragment/query_planner.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

/// Plans `query` under the warehouse's own clustering and executes it.
MiniWarehouse::MdhfExecution ExecutePlanned(const MiniWarehouse& wh,
                                            const StarQuery& query) {
  const QueryPlanner planner(&wh.schema(), &wh.cluster_fragmentation());
  return wh.ExecuteWithPlan(query, planner.Plan(query));
}

// The shared warehouse is expensive to build; construct it once. It is
// clustered under {time::month, product::group} without summaries, so
// every fragment a plan selects is scanned.
class MiniWarehouseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    warehouse_ = new MiniWarehouse(MakeTinyApb1Schema(), /*seed=*/42,
                                   {{kApb1Time, 2}, {kApb1Product, 3}},
                                   /*enable_summaries=*/false);
  }
  static void TearDownTestSuite() {
    delete warehouse_;
    warehouse_ = nullptr;
  }

  static MiniWarehouse* warehouse_;
};

MiniWarehouse* MiniWarehouseTest::warehouse_ = nullptr;

TEST_F(MiniWarehouseTest, PopulationMatchesDensity) {
  const auto& schema = warehouse_->schema();
  const double expected =
      schema.density() * static_cast<double>(schema.MaxFactCount());
  EXPECT_NEAR(static_cast<double>(warehouse_->row_count()), expected,
              expected * 0.05);
  EXPECT_GT(warehouse_->row_count(), 0);
}

TEST_F(MiniWarehouseTest, ColumnsWithinLeafCardinalities) {
  const auto& schema = warehouse_->schema();
  for (DimId d = 0; d < schema.num_dimensions(); ++d) {
    const auto card = schema.dimension(d).hierarchy().LeafCardinality();
    for (const auto v :
         warehouse_->facts().columns[static_cast<std::size_t>(d)]) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, card);
    }
  }
}

TEST_F(MiniWarehouseTest, BitmapPathEqualsFullScanSingleDim) {
  const StarQuery q("1MONTH", {{kApb1Time, 2, {5}}});
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q),
            warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, BitmapPathEqualsFullScanMultiDim) {
  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q),
            warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, BitmapPathEqualsFullScanInList) {
  const StarQuery q("2STORES", {{kApb1Customer, 1, {3, 17}}});
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q),
            warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, EmptyPredicateQueryAggregatesEverything) {
  const StarQuery q("ALL", {});
  const auto full = warehouse_->ExecuteFullScan(q);
  EXPECT_EQ(full.rows, warehouse_->row_count());
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q), full);
}

TEST_F(MiniWarehouseTest, MdhfConfinesRowsScanned) {
  // 1MONTH1GROUP under {time::month, product::group}: IOC1-opt — the
  // fragment contains exactly the matching rows.
  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});
  const auto exec = ExecutePlanned(*warehouse_, q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
  EXPECT_EQ(exec.io_class, IoClass::kIoc1Opt);
  EXPECT_EQ(exec.fragments_processed, 1);
  // Every scanned row is a hit: no bitmap filtering needed.
  EXPECT_EQ(exec.rows_scanned, exec.result.rows);
  EXPECT_EQ(exec.bitmaps_read, 0);
}

TEST_F(MiniWarehouseTest, MdhfQ2UsesSuffixBitmaps) {
  // Tiny product: 96 codes, 24 groups -> 4 codes per group; code 30 is in
  // group 7.
  const StarQuery q("1CODE1MONTH",
                    {{kApb1Product, 5, {30}}, {kApb1Time, 2, {3}}});
  const auto exec = ExecutePlanned(*warehouse_, q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
  EXPECT_EQ(exec.query_class, QueryClass::kQ2);
  EXPECT_EQ(exec.fragments_processed, 1);
  EXPECT_GT(exec.bitmaps_read, 0);
  // Only a subset of the fragment's rows match the code.
  EXPECT_GT(exec.rows_scanned, exec.result.rows);
}

TEST_F(MiniWarehouseTest, MdhfUnsupportedStillCorrect) {
  const StarQuery q("1STORE", {{kApb1Customer, 1, {17}}});
  const auto exec = ExecutePlanned(*warehouse_, q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
  EXPECT_EQ(exec.io_class, IoClass::kIoc2NoSupp);
  // All fragments processed; all rows scanned.
  EXPECT_EQ(exec.rows_scanned, warehouse_->row_count());
}

TEST_F(MiniWarehouseTest, MdhfInListAcrossGroupsStaysCorrect) {
  // Codes 2 and 50 belong to different groups: the suffix-bitmap shortcut
  // must not be applied (regression test for cross-parent aliasing).
  const StarQuery q("2CODES", {{kApb1Product, 5, {2, 50}}});
  const auto exec = ExecutePlanned(*warehouse_, q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, MeasuresArePositive) {
  const StarQuery q("ALL", {});
  const auto r = warehouse_->ExecuteFullScan(q);
  EXPECT_GT(r.units_sold, r.rows);          // each row sells >= 1 unit
  EXPECT_GT(r.dollar_sales_cents, r.rows);  // each row >= 100 cents
}

// ---- Exhaustive cross-validation sweep ----
// For every fragmentation shape and every paper query type, the MDHF
// execution on a warehouse clustered under that fragmentation must equal
// the full scan. This is the central end-to-end property of the
// reproduction: fragment confinement + hierarchical encoded bitmap
// evaluation never changes query results.

struct SweepCase {
  const char* frag_label;
  std::vector<FragAttr> attrs;
};

class MdhfEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 public:
  static const std::vector<SweepCase>& Fragmentations() {
    static const std::vector<SweepCase>* cases = new std::vector<SweepCase>{
        {"none", {}},
        {"month", {{kApb1Time, 2}}},
        {"quarter", {{kApb1Time, 1}}},
        {"group", {{kApb1Product, 3}}},
        {"code", {{kApb1Product, 5}}},
        {"store", {{kApb1Customer, 1}}},
        {"retailer", {{kApb1Customer, 0}}},
        {"channel", {{kApb1Channel, 0}}},
        {"month_group", {{kApb1Time, 2}, {kApb1Product, 3}}},
        {"month_code", {{kApb1Time, 2}, {kApb1Product, 5}}},
        {"quarter_family", {{kApb1Time, 1}, {kApb1Product, 2}}},
        {"month_group_store",
         {{kApb1Time, 2}, {kApb1Product, 3}, {kApb1Customer, 1}}},
        {"all_four",
         {{kApb1Time, 1},
          {kApb1Product, 2},
          {kApb1Customer, 0},
          {kApb1Channel, 0}}},
    };
    return *cases;
  }

  static const std::vector<StarQuery>& Queries() {
    static const std::vector<StarQuery>* queries =
        new std::vector<StarQuery>{
            StarQuery("1MONTH", {{kApb1Time, 2, {5}}}),
            StarQuery("1QUARTER", {{kApb1Time, 1, {2}}}),
            StarQuery("1YEAR", {{kApb1Time, 0, {0}}}),
            StarQuery("1GROUP", {{kApb1Product, 3, {7}}}),
            StarQuery("1CODE", {{kApb1Product, 5, {30}}}),
            StarQuery("1DIVISION", {{kApb1Product, 0, {1}}}),
            StarQuery("1STORE", {{kApb1Customer, 1, {17}}}),
            StarQuery("1RETAILER", {{kApb1Customer, 0, {3}}}),
            StarQuery("1CHANNEL", {{kApb1Channel, 0, {2}}}),
            StarQuery("1MONTH1GROUP",
                      {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}}),
            StarQuery("1CODE1QUARTER",
                      {{kApb1Product, 5, {30}}, {kApb1Time, 1, {2}}}),
            StarQuery("1GROUP1STORE",
                      {{kApb1Product, 3, {7}}, {kApb1Customer, 1, {17}}}),
            StarQuery("3DIM", {{kApb1Product, 2, {5}},
                               {kApb1Time, 1, {1}},
                               {kApb1Channel, 0, {1}}}),
            StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                                  {kApb1Time, 2, {0, 6}}}),
        };
    return *queries;
  }
};

TEST_P(MdhfEquivalenceSweep, MdhfEqualsFullScan) {
  // One warehouse per fragmentation, built on first use and shared by
  // that fragmentation's queries.
  static auto* warehouses = new std::map<int, std::unique_ptr<MiniWarehouse>>;
  const auto [frag_index, query_index] = GetParam();
  const auto& sweep_case =
      Fragmentations()[static_cast<std::size_t>(frag_index)];
  const auto& query = Queries()[static_cast<std::size_t>(query_index)];
  auto& warehouse = (*warehouses)[frag_index];
  if (warehouse == nullptr) {
    warehouse = std::make_unique<MiniWarehouse>(MakeTinyApb1Schema(),
                                                /*seed=*/42, sweep_case.attrs);
  }
  const auto exec = ExecutePlanned(*warehouse, query);
  ASSERT_TRUE(exec.status.ok()) << exec.status.ToString();
  const auto expected = warehouse->ExecuteFullScan(query);
  EXPECT_EQ(exec.result, expected)
      << "fragmentation " << sweep_case.frag_label << " query "
      << query.name();
  // The bitmap path must agree as well.
  EXPECT_EQ(warehouse->ExecuteWithBitmaps(query), expected);
}

using SweepParam = std::tuple<int, int>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [f, q] = info.param;
  return MdhfEquivalenceSweep::Fragmentations()[static_cast<std::size_t>(f)]
             .frag_label +
         std::string("_") +
         MdhfEquivalenceSweep::Queries()[static_cast<std::size_t>(q)].name();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MdhfEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 13), ::testing::Range(0, 14)),
    SweepName);

}  // namespace
}  // namespace mdw
