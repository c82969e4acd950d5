#include <gtest/gtest.h>

#include <set>

#include "core/mini_warehouse.h"
#include "fragment/range_fragmentation.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

class RangeFragTest : public ::testing::Test {
 protected:
  RangeFragTest() : schema_(MakeApb1Schema()) {}
  StarSchema schema_;
};

TEST_F(RangeFragTest, PointwiseMatchesPointFragmentation) {
  const auto ranged = RangeFragmentation::PointwiseOf(&schema_, kApb1Time, 2);
  const Fragmentation point(&schema_, {{kApb1Time, 2}});
  EXPECT_EQ(ranged.FragmentCount(), point.FragmentCount());
  for (std::int64_t month = 0; month < 24; ++month) {
    EXPECT_EQ(ranged.FragmentOfRow({0, 0, 0, month}),
              point.FragmentOfRow({0, 0, 0, month}));
  }
}

TEST_F(RangeFragTest, EqualSplitBounds) {
  const auto p = RangeFragmentation::EqualSplit(schema_, kApb1Product, 5, 4);
  ASSERT_EQ(p.upper_bounds.size(), 4u);
  EXPECT_EQ(p.upper_bounds.back(), 14'400);
  EXPECT_EQ(p.upper_bounds[0], 3'600);
}

TEST_F(RangeFragTest, RangeOfValueBinarySearch) {
  RangePartition p{kApb1Time, 2, {6, 12, 18, 24}};
  const RangeFragmentation f(&schema_, {p});
  EXPECT_EQ(f.RangeOfValue(0, 0), 0);
  EXPECT_EQ(f.RangeOfValue(0, 5), 0);
  EXPECT_EQ(f.RangeOfValue(0, 6), 1);
  EXPECT_EQ(f.RangeOfValue(0, 23), 3);
}

TEST_F(RangeFragTest, FragmentCountIsProductOfRangeCounts) {
  const RangeFragmentation f(
      &schema_, {RangePartition{kApb1Time, 2, {6, 12, 18, 24}},
                 RangeFragmentation::EqualSplit(schema_, kApb1Product, 3,
                                                10)});
  EXPECT_EQ(f.FragmentCount(), 40);
}

TEST_F(RangeFragTest, AlignedQueryNeedsNoBitmaps) {
  // Quarterly ranges on month: a query on one quarter covers its range
  // exactly -> no bitmap access (like the point case of Q1).
  RangePartition quarters{kApb1Time, 2, {3, 6, 9, 12, 15, 18, 21, 24}};
  const RangeFragmentation f(&schema_, {quarters});
  const StarQuery q("1QUARTER", {{kApb1Time, 1, {2}}});
  const auto plan = f.PlanQuery(q);
  EXPECT_EQ(plan.fragment_count, 1);
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST_F(RangeFragTest, MisalignedQueryNeedsBitmaps) {
  // Ranges of 5 months: a single month only partially covers its range.
  RangePartition fives{kApb1Time, 2, {5, 10, 15, 20, 24}};
  const RangeFragmentation f(&schema_, {fives});
  const StarQuery q("1MONTH", {{kApb1Time, 2, {3}}});
  const auto plan = f.PlanQuery(q);
  EXPECT_EQ(plan.fragment_count, 1);
  EXPECT_TRUE(plan.NeedsBitmaps());
}

TEST_F(RangeFragTest, CoarserAlignedBlockSpansMultipleRanges) {
  // Monthly point ranges grouped into 8 ranges of 3 months = quarters;
  // a YEAR covers 4 whole ranges -> no bitmaps.
  RangePartition quarters{kApb1Time, 2, {3, 6, 9, 12, 15, 18, 21, 24}};
  const RangeFragmentation f(&schema_, {quarters});
  const StarQuery q("1YEAR", {{kApb1Time, 0, {1}}});
  const auto plan = f.PlanQuery(q);
  EXPECT_EQ(plan.fragment_count, 4);
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST_F(RangeFragTest, FinerPredicateAlwaysNeedsBitmaps) {
  RangePartition quarters{kApb1Time, 1, {8}};  // one range over quarters
  const RangeFragmentation f(&schema_, {quarters});
  const StarQuery q("1MONTH", {{kApb1Time, 2, {7}}});
  const auto plan = f.PlanQuery(q);
  EXPECT_EQ(plan.fragment_count, 1);
  EXPECT_TRUE(plan.NeedsBitmaps());
}

TEST_F(RangeFragTest, ForeignDimensionNeedsBitmaps) {
  RangePartition quarters{kApb1Time, 2, {3, 6, 9, 12, 15, 18, 21, 24}};
  const RangeFragmentation f(&schema_, {quarters});
  const StarQuery q("1STORE", {{kApb1Customer, 1, {7}}});
  const auto plan = f.PlanQuery(q);
  EXPECT_EQ(plan.fragment_count, 8);  // all ranges
  EXPECT_TRUE(plan.NeedsBitmaps());
}

TEST_F(RangeFragTest, LabelShowsRangeCounts) {
  const RangeFragmentation f(
      &schema_, {RangePartition{kApb1Time, 2, {12, 24}}});
  EXPECT_EQ(f.Label(), "{time::month/2}");
}

// Functional correctness on materialised data: fragment membership plus
// (where required) predicate re-checking reproduces the full-scan result.
TEST(RangeFragFunctionalTest, SelectedFragmentsContainAllHits) {
  const MiniWarehouse warehouse(MakeTinyApb1Schema(), 11, {});
  const auto& schema = warehouse.schema();
  const RangeFragmentation f(
      &schema,
      {RangePartition{kApb1Time, 2, {5, 10, 12}},
       RangeFragmentation::EqualSplit(schema, kApb1Product, 5, 7)});

  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});
  const auto plan = f.PlanQuery(q);

  // Materialise the selected fragment set.
  std::set<FragId> fragments;
  std::vector<std::size_t> cursor(plan.slices.size(), 0);
  bool exhausted = false;
  while (!exhausted) {
    FragId id = 0;
    for (std::size_t i = 0; i < plan.slices.size(); ++i) {
      id = id * f.partition(static_cast<int>(i)).num_ranges() +
           plan.slices[i][cursor[i]];
    }
    fragments.insert(id);
    exhausted = true;
    for (std::size_t i = plan.slices.size(); i-- > 0;) {
      if (++cursor[i] < plan.slices[i].size()) {
        exhausted = false;
        break;
      }
      cursor[i] = 0;
    }
  }

  // Every full-scan hit row must live in a selected fragment.
  const auto& facts = warehouse.facts();
  std::int64_t hits = 0, covered = 0;
  for (std::int64_t row = 0; row < warehouse.row_count(); ++row) {
    std::vector<std::int64_t> keys;
    for (DimId d = 0; d < schema.num_dimensions(); ++d) {
      keys.push_back(facts.columns[static_cast<std::size_t>(d)]
                                  [static_cast<std::size_t>(row)]);
    }
    const auto& th = schema.dimension(kApb1Time).hierarchy();
    const auto& ph = schema.dimension(kApb1Product).hierarchy();
    const bool hit = th.AncestorOfLeaf(keys[kApb1Time], 2) == 3 &&
                     ph.AncestorOfLeaf(keys[kApb1Product], 3) == 7;
    if (!hit) continue;
    ++hits;
    if (fragments.count(f.FragmentOfRow(keys)) > 0) ++covered;
  }
  EXPECT_GT(hits, 0);
  EXPECT_EQ(covered, hits);
}

TEST(RangeFragFunctionalTest, RowMappingPartitionsAllRows) {
  const MiniWarehouse warehouse(MakeTinyApb1Schema(), 13, {});
  const auto& schema = warehouse.schema();
  const RangeFragmentation f(
      &schema, {RangeFragmentation::EqualSplit(schema, kApb1Customer, 1, 5),
                RangePartition{kApb1Channel, 0, {1, 3}}});
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(f.FragmentCount()), 0);
  const auto& facts = warehouse.facts();
  for (std::int64_t row = 0; row < warehouse.row_count(); ++row) {
    std::vector<std::int64_t> keys;
    for (DimId d = 0; d < schema.num_dimensions(); ++d) {
      keys.push_back(facts.columns[static_cast<std::size_t>(d)]
                                  [static_cast<std::size_t>(row)]);
    }
    const FragId id = f.FragmentOfRow(keys);
    ASSERT_GE(id, 0);
    ASSERT_LT(id, f.FragmentCount());
    ++counts[static_cast<std::size_t>(id)];
  }
  std::int64_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, warehouse.row_count());
}

}  // namespace
}  // namespace mdw
