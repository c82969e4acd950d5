#include <gtest/gtest.h>

#include <set>

#include "core/paged_layout.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

class PagedLayoutTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    warehouse_ = new MiniWarehouse(MakeTinyApb1Schema(), /*seed=*/42, {});
  }
  static void TearDownTestSuite() {
    delete warehouse_;
    warehouse_ = nullptr;
  }

  static MiniWarehouse* warehouse_;
};

MiniWarehouse* PagedLayoutTest::warehouse_ = nullptr;

TEST_F(PagedLayoutTest, PositionsAreAPermutation) {
  const Fragmentation f(&warehouse_->schema(),
                        {{kApb1Time, 2}, {kApb1Product, 3}});
  const PagedLayout layout(warehouse_, LayoutOrder::kFragmentClustered, &f);
  std::set<std::int64_t> positions;
  for (std::int64_t row = 0; row < warehouse_->row_count(); ++row) {
    positions.insert(layout.PositionOfRow(row));
  }
  EXPECT_EQ(static_cast<std::int64_t>(positions.size()),
            warehouse_->row_count());
  EXPECT_EQ(*positions.begin(), 0);
  EXPECT_EQ(*positions.rbegin(), warehouse_->row_count() - 1);
}

TEST_F(PagedLayoutTest, BaselineKeepsInsertionOrder) {
  const PagedLayout layout(warehouse_, LayoutOrder::kGeneration);
  for (std::int64_t row = 0; row < warehouse_->row_count(); ++row) {
    EXPECT_EQ(layout.PositionOfRow(row), row);
  }
}

TEST_F(PagedLayoutTest, PageCount) {
  const PagedLayout layout(warehouse_, LayoutOrder::kGeneration);
  const auto tpp = warehouse_->schema().physical().TuplesPerPage();
  EXPECT_EQ(layout.page_count(),
            (warehouse_->row_count() + tpp - 1) / tpp);
}

TEST_F(PagedLayoutTest, SupportedQueryHitsFarFewerPagesUnderMdhf) {
  // The paper's Sec. 4.5 claim, measured on real rows: a supported query
  // finds its hits clustered in few pages under the MDHF layout and
  // spread across nearly all pages in insertion order.
  const Fragmentation f(&warehouse_->schema(),
                        {{kApb1Time, 2}, {kApb1Product, 3}});
  const PagedLayout mdhf(warehouse_, LayoutOrder::kFragmentClustered, &f);
  const PagedLayout heap(warehouse_, LayoutOrder::kArrival);
  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});

  const auto clustered = mdhf.Analyze(q);
  const auto spread = heap.Analyze(q);
  EXPECT_EQ(clustered.hit_rows, spread.hit_rows);
  ASSERT_GT(clustered.hit_rows, 0);
  EXPECT_LT(clustered.pages_with_hits * 10, spread.pages_with_hits);
  EXPECT_GT(clustered.hits_per_hit_page, 5 * spread.hits_per_hit_page);
}

TEST_F(PagedLayoutTest, MdhfPagesMatchFragmentFootprint) {
  // A Q1 exact-match query's hits occupy exactly
  // ceil-ish(fragment rows / tuples-per-page) pages (+1 for the page
  // straddling the fragment boundary).
  const Fragmentation f(&warehouse_->schema(),
                        {{kApb1Time, 2}, {kApb1Product, 3}});
  const PagedLayout mdhf(warehouse_, LayoutOrder::kFragmentClustered, &f);
  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});
  const auto stats = mdhf.Analyze(q);
  const auto tpp = warehouse_->schema().physical().TuplesPerPage();
  const std::int64_t min_pages = (stats.hit_rows + tpp - 1) / tpp;
  EXPECT_GE(stats.pages_with_hits, min_pages);
  EXPECT_LE(stats.pages_with_hits, min_pages + 1);
}

TEST_F(PagedLayoutTest, UnsupportedQueryGainsNothing) {
  // 1STORE is not supported by the month/group fragmentation: its hits
  // stay spread regardless of the layout.
  const Fragmentation f(&warehouse_->schema(),
                        {{kApb1Time, 2}, {kApb1Product, 3}});
  const PagedLayout mdhf(warehouse_, LayoutOrder::kFragmentClustered, &f);
  const PagedLayout heap(warehouse_, LayoutOrder::kArrival);
  const StarQuery q("1STORE", {{kApb1Customer, 1, {17}}});
  const auto clustered = mdhf.Analyze(q);
  const auto spread = heap.Analyze(q);
  EXPECT_NEAR(static_cast<double>(clustered.pages_with_hits),
              static_cast<double>(spread.pages_with_hits),
              0.2 * static_cast<double>(spread.pages_with_hits));
}

TEST_F(PagedLayoutTest, Q3QueryAlsoClusters) {
  // A quarter query on a month fragmentation: hits are a contiguous run
  // of fragments, still clustered.
  const Fragmentation f(&warehouse_->schema(),
                        {{kApb1Time, 2}, {kApb1Product, 3}});
  const PagedLayout mdhf(warehouse_, LayoutOrder::kFragmentClustered, &f);
  const PagedLayout heap(warehouse_, LayoutOrder::kArrival);
  const StarQuery q("1QUARTER", {{kApb1Time, 1, {2}}});
  EXPECT_LT(mdhf.Analyze(q).pages_with_hits,
            heap.Analyze(q).pages_with_hits);
}

TEST_F(PagedLayoutTest, EmptyQueryTouchesAllPages) {
  const PagedLayout heap(warehouse_, LayoutOrder::kArrival);
  const StarQuery q("ALL", {});
  const auto stats = heap.Analyze(q);
  EXPECT_EQ(stats.hit_rows, warehouse_->row_count());
  EXPECT_EQ(stats.pages_with_hits, heap.page_count());
}

}  // namespace
}  // namespace mdw
