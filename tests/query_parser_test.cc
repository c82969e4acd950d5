#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "fragment/query_planner.h"
#include "schema/apb1.h"
#include "workload/query_parser.h"

namespace mdw {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : schema_(MakeApb1Schema()) {}

  StarQuery MustParse(const std::string& sql) {
    auto query = ParseSql(schema_, sql);
    EXPECT_TRUE(query.ok()) << sql << " -> " << query.status().message();
    return query.ok() ? std::move(query).value() : StarQuery("invalid", {});
  }

  std::string MustFail(const std::string& sql) {
    auto query = ParseSql(schema_, sql);
    EXPECT_FALSE(query.ok()) << sql;
    if (query.ok()) return "";
    EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument) << sql;
    return query.status().message();
  }

  StarSchema schema_;
};

TEST_F(ParserTest, PaperExampleQuery) {
  // The paper's 1MONTH1GROUP, Sec. 3.1 (values made explicit).
  const auto q = MustParse(
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
      "WHERE time.month = 3 AND product.group = 41");
  ASSERT_EQ(q.predicates().size(), 2u);
  EXPECT_EQ(q.predicates()[0].dim, kApb1Time);
  EXPECT_EQ(q.predicates()[0].depth, 2);
  EXPECT_EQ(q.predicates()[0].values, std::vector<std::int64_t>{3});
  EXPECT_EQ(q.predicates()[1].dim, kApb1Product);
  EXPECT_EQ(q.predicates()[1].depth, 3);
}

TEST_F(ParserTest, ParsedQueryPlansLikeHandBuilt) {
  const Fragmentation f(&schema_, {{kApb1Time, 2}, {kApb1Product, 3}});
  const QueryPlanner planner(&schema_, &f);
  const auto parsed = MustParse(
      "SELECT SUM(UnitsSold) FROM sales "
      "WHERE time.month = 3 AND product.group = 41");
  const auto by_hand = apb1_queries::OneMonthOneGroup(3, 41);
  const auto plan_parsed = planner.Plan(parsed);
  const auto plan_hand = planner.Plan(by_hand);
  EXPECT_EQ(plan_parsed.FragmentCount(), plan_hand.FragmentCount());
  EXPECT_EQ(plan_parsed.io_class(), plan_hand.io_class());
  EXPECT_EQ(plan_parsed.MaterializeFragments(),
            plan_hand.MaterializeFragments());
}

TEST_F(ParserTest, InList) {
  const auto q = MustParse(
      "SELECT SUM(Cost) FROM sales WHERE product.code IN (1, 2, 50)");
  ASSERT_EQ(q.predicates().size(), 1u);
  EXPECT_EQ(q.predicates()[0].values,
            (std::vector<std::int64_t>{1, 2, 50}));
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  const auto q = MustParse(
      "select sum(UnitsSold) from sales where customer.store = 17");
  ASSERT_EQ(q.predicates().size(), 1u);
  EXPECT_EQ(q.predicates()[0].dim, kApb1Customer);
}

TEST_F(ParserTest, NoWhereClauseMeansFullAggregate) {
  const auto q = MustParse("SELECT SUM(UnitsSold) FROM sales");
  EXPECT_TRUE(q.predicates().empty());
}

TEST_F(ParserTest, SelectStarAndMultipleAggregates) {
  const auto star = MustParse("SELECT * FROM sales WHERE channel.channel = 3");
  EXPECT_EQ(star.aggregates(), AggregateSpec::Default());
  const auto q = MustParse("SELECT COUNT(*), AVG(Cost), SUM(DollarSales) "
                           "FROM sales");
  ASSERT_EQ(q.aggregates().items.size(), 3u);
  EXPECT_EQ(q.aggregates().items[0].fn, AggFn::kCount);
  EXPECT_EQ(q.aggregates().items[1].fn, AggFn::kAvg);
  // Unknown measure names (the dialect's historical aliases) read
  // UnitsSold; DollarSales is the one name selecting the other measure.
  EXPECT_EQ(q.aggregates().items[1].measure, MeasureId::kUnitsSold);
  EXPECT_EQ(q.aggregates().items[2].fn, AggFn::kSum);
  EXPECT_EQ(q.aggregates().items[2].measure, MeasureId::kDollarSales);
}

TEST_F(ParserTest, RejectsMinMax) {
  const auto error = MustFail("SELECT MIN(Cost), MAX(Cost) FROM sales");
  EXPECT_NE(error.find("MIN/MAX"), std::string::npos);
}

TEST_F(ParserTest, GroupByClause) {
  const auto q = MustParse(
      "SELECT SUM(UnitsSold) FROM sales "
      "WHERE time.quarter = 2 GROUP BY product.group");
  ASSERT_TRUE(q.grouped());
  EXPECT_EQ(q.group_by()->dim, kApb1Product);
  EXPECT_EQ(q.group_by()->depth, 3);
  EXPECT_FALSE(q.order_by().has_value());
}

TEST_F(ParserTest, OrderByPositionWithLimit) {
  const auto q = MustParse(
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
      "GROUP BY time.month ORDER BY 2 DESC LIMIT 5");
  ASSERT_TRUE(q.order_by().has_value());
  EXPECT_EQ(q.order_by()->item, 1);
  EXPECT_TRUE(q.order_by()->descending);
  EXPECT_EQ(q.order_by()->limit, 5);
}

TEST_F(ParserTest, OrderByAggregateExpressionDefaultsToAscending) {
  const auto q = MustParse(
      "SELECT COUNT(*), SUM(DollarSales) FROM sales "
      "GROUP BY customer.store ORDER BY SUM(DollarSales)");
  ASSERT_TRUE(q.order_by().has_value());
  EXPECT_EQ(q.order_by()->item, 1);
  EXPECT_FALSE(q.order_by()->descending);
  EXPECT_EQ(q.order_by()->limit, 0);
}

TEST_F(ParserTest, RejectsBadGroupByAndOrderBy) {
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales GROUP BY supplier.name")
                .find("unknown dimension"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales GROUP BY time.week")
                .find("unknown level"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales ORDER BY 2")
                .find("outside the SELECT list"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales ORDER BY AVG(x)")
                .find("not in the SELECT list"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales ORDER BY 1 LIMIT 0")
                .find("LIMIT"),
            std::string::npos);
  MustFail("SELECT SUM(x) FROM sales GROUP BY");
  MustFail("SELECT SUM(x) FROM sales ORDER BY");
  MustFail("SELECT SUM(x) FROM sales LIMIT 3");  // LIMIT needs ORDER BY
}

TEST_F(ParserTest, ParseSqlReturnsTypedStatus) {
  const auto bad = ParseSql(schema_, "SELECT SUM(x) FROM nowhere");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("unknown fact table"),
            std::string::npos);
  const auto good = ParseSql(
      schema_, "SELECT SUM(UnitsSold) FROM sales GROUP BY time.year");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->grouped());
}

TEST_F(ParserTest, RejectsUnknownDimension) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE supplier.name = 1");
  EXPECT_NE(error.find("unknown dimension"), std::string::npos);
}

TEST_F(ParserTest, RejectsUnknownLevel) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE time.week = 1");
  EXPECT_NE(error.find("unknown level"), std::string::npos);
}

TEST_F(ParserTest, RejectsOutOfRangeValue) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE time.month = 24");
  EXPECT_NE(error.find("expected a value in [0, 24)"), std::string::npos);
}

TEST_F(ParserTest, RejectsWrongFactTable) {
  const auto error = MustFail("SELECT SUM(x) FROM orders");
  EXPECT_NE(error.find("unknown fact table"), std::string::npos);
}

TEST_F(ParserTest, RejectsDuplicateDimension) {
  const auto error = MustFail(
      "SELECT SUM(x) FROM sales WHERE time.month = 1 AND time.year = 0");
  EXPECT_NE(error.find("duplicate predicate"), std::string::npos);
}

TEST_F(ParserTest, RejectsTrailingGarbage) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE time.month = 1 EXTRA");
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST_F(ParserTest, RejectsMalformedSyntax) {
  MustFail("");
  MustFail("FROM sales");
  MustFail("SELECT FROM sales");
  MustFail("SELECT SUM(UnitsSold FROM sales");
  MustFail("SELECT SUM(x) FROM sales WHERE");
  MustFail("SELECT SUM(x) FROM sales WHERE time month = 1");
  MustFail("SELECT SUM(x) FROM sales WHERE time.month 1");
  MustFail("SELECT SUM(x) FROM sales WHERE time.month IN 1");
  MustFail("SELECT SUM(x) FROM sales WHERE time.month IN (1, )");
}

TEST_F(ParserTest, WorksOnTinySchema) {
  const auto tiny = MakeTinyApb1Schema();
  const auto q = ParseSql(
      tiny, "SELECT SUM(UnitsSold) FROM tiny_sales WHERE product.code = 30");
  ASSERT_TRUE(q.ok()) << q.status().message();
  EXPECT_EQ(q.value().predicates()[0].values[0], 30);
}

// Literals beyond int64 are typed errors, never an exception out of the
// parser: one case per position that reads an integer.
TEST_F(ParserTest, RejectsInt64OverflowPredicateValue) {
  const std::string error = MustFail(
      "SELECT SUM(UnitsSold) FROM sales WHERE time.month = "
      "99999999999999999999");
  EXPECT_NE(error.find("99999999999999999999"), std::string::npos) << error;
  MustFail(
      "SELECT SUM(UnitsSold) FROM sales WHERE time.month IN (1, "
      "99999999999999999999)");
}

TEST_F(ParserTest, RejectsInt64OverflowOrderByPosition) {
  const std::string error = MustFail(
      "SELECT SUM(UnitsSold) FROM sales GROUP BY time.year "
      "ORDER BY 99999999999999999999");
  EXPECT_NE(error.find("outside the SELECT list"), std::string::npos)
      << error;
}

TEST_F(ParserTest, RejectsInt64OverflowLimit) {
  const std::string error = MustFail(
      "SELECT SUM(UnitsSold) FROM sales GROUP BY time.year "
      "ORDER BY 1 LIMIT 99999999999999999999");
  EXPECT_NE(error.find("LIMIT"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Grammar parity: every form of the dialect against a hand-built query.

void ExpectSameQuery(const StarQuery& got, const StarQuery& want,
                     const std::string& sql) {
  ASSERT_EQ(got.predicates().size(), want.predicates().size()) << sql;
  for (std::size_t i = 0; i < want.predicates().size(); ++i) {
    EXPECT_EQ(got.predicates()[i].dim, want.predicates()[i].dim) << sql;
    EXPECT_EQ(got.predicates()[i].depth, want.predicates()[i].depth) << sql;
    EXPECT_EQ(got.predicates()[i].values, want.predicates()[i].values)
        << sql;
  }
  EXPECT_EQ(got.aggregates(), want.aggregates()) << sql;
  EXPECT_EQ(got.group_by(), want.group_by()) << sql;
  EXPECT_EQ(got.order_by(), want.order_by()) << sql;
}

TEST_F(ParserTest, EveryGrammarFormParsesToTheHandBuiltQuery) {
  constexpr AggItem kSumUnits{AggFn::kSum, MeasureId::kUnitsSold};
  constexpr AggItem kSumDollars{AggFn::kSum, MeasureId::kDollarSales};
  constexpr AggItem kCount{AggFn::kCount, MeasureId::kUnitsSold};
  constexpr AggItem kAvgUnits{AggFn::kAvg, MeasureId::kUnitsSold};
  constexpr AggItem kAvgDollars{AggFn::kAvg, MeasureId::kDollarSales};
  struct Case {
    std::string sql;
    StarQuery want;
  };
  const std::vector<Case> cases = {
      {"SELECT * FROM sales", StarQuery("q", {})},
      {"SELECT SUM(UnitsSold) FROM sales WHERE time.month = 3",
       StarQuery("q", {{kApb1Time, 2, {3}}}, AggregateSpec{{kSumUnits}})},
      {"SELECT SUM(DollarSales) FROM sales WHERE product.group IN (7, 3, 7)",
       StarQuery("q", {{kApb1Product, 3, {7, 3, 7}}},
                 AggregateSpec{{kSumDollars}})},
      {"SELECT COUNT(*), COUNT(DollarSales) FROM sales "
       "WHERE customer.store = 17 AND channel.channel IN (1, 2)",
       StarQuery("q", {{kApb1Customer, 1, {17}}, {kApb1Channel, 0, {1, 2}}},
                 AggregateSpec{{kCount, kCount}})},
      {"SELECT AVG(UnitsSold), AVG(DollarSales), AVG(Cost) FROM sales "
       "GROUP BY time.quarter",
       StarQuery("q", {}, AggregateSpec{{kAvgUnits, kAvgDollars, kAvgUnits}},
                 GroupBy{kApb1Time, 1})},
      {"SELECT *, COUNT(*) FROM sales WHERE time.year = 1",
       StarQuery("q", {{kApb1Time, 0, {1}}},
                 AggregateSpec{{kSumUnits, kSumDollars, kCount}})},
      {"SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
       "GROUP BY product.family ORDER BY 2 DESC LIMIT 5",
       StarQuery("q", {}, AggregateSpec{{kSumUnits, kSumDollars}},
                 GroupBy{kApb1Product, 2}, OrderBy{1, true, 5})},
      {"SELECT SUM(UnitsSold), COUNT(*) FROM sales GROUP BY time.month "
       "ORDER BY COUNT(*) ASC",
       StarQuery("q", {}, AggregateSpec{{kSumUnits, kCount}},
                 GroupBy{kApb1Time, 2}, OrderBy{1, false, 0})},
      {"SELECT AVG(UnitsSold) FROM sales WHERE product.code = 950 "
       "GROUP BY customer.retailer ORDER BY AVG(UnitsSold) LIMIT 3",
       StarQuery("q", {{kApb1Product, 5, {950}}}, AggregateSpec{{kAvgUnits}},
                 GroupBy{kApb1Customer, 0}, OrderBy{0, false, 3})},
      {"SELECT COUNT(*) FROM sales GROUP BY product.line ORDER BY 1 DESC",
       StarQuery("q", {}, AggregateSpec{{kCount}}, GroupBy{kApb1Product, 1},
                 OrderBy{0, true, 0})},
      // Keywords, the fact table and measure names in any case.
      {"sElEcT sum(unitssold), Sum(DOLLARSALES) fRoM SaLeS wHeRe "
       "time.month = 4 aNd product.group = 9 gRoUp By product.group "
       "OrDeR bY 1 dEsC lImIt 2",
       StarQuery("q", {{kApb1Time, 2, {4}}, {kApb1Product, 3, {9}}},
                 AggregateSpec{{kSumUnits, kSumDollars}},
                 GroupBy{kApb1Product, 3}, OrderBy{0, true, 2})},
      // Whitespace of every kind between tokens, and none where allowed.
      {"  SELECT\tSUM ( UnitsSold )\n,\r\nCOUNT ( * )   FROM   sales\v"
       "  WHERE  time . month  IN  ( 1 ,2 )\f  ",
       StarQuery("q", {{kApb1Time, 2, {1, 2}}},
                 AggregateSpec{{kSumUnits, kCount}})},
      {"SELECT SUM(UnitsSold),COUNT(*)FROM sales WHERE time.month IN(1,2)"
       "AND product.group=5 GROUP BY time.quarter ORDER BY 2 DESC LIMIT 1",
       StarQuery("q", {{kApb1Time, 2, {1, 2}}, {kApb1Product, 3, {5}}},
                 AggregateSpec{{kSumUnits, kCount}}, GroupBy{kApb1Time, 1},
                 OrderBy{1, true, 1})},
  };
  for (const Case& c : cases) {
    const StarQuery got = MustParse(c.sql);
    ExpectSameQuery(got, c.want, c.sql);
  }
}

// ---------------------------------------------------------------------------
// Mutation fuzz: damaged statements answer or fail typed, never abort.

TEST_F(ParserTest, MutatedStatementsParseValidOrFailTyped) {
  const std::vector<std::string> seeds = {
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
      "WHERE time.month = 3 AND product.group = 41",
      "SELECT COUNT(*), AVG(DollarSales) FROM sales "
      "WHERE product.code IN (1, 2, 50) AND customer.store = 17",
      "SELECT * FROM sales WHERE channel.channel = 3 GROUP BY time.quarter",
      "SELECT SUM(UnitsSold), COUNT(*) FROM sales WHERE time.year = 1 "
      "GROUP BY product.family ORDER BY SUM(UnitsSold) DESC LIMIT 5",
      "select avg(unitssold) from sales group by customer.retailer "
      "order by 1 asc limit 3",
  };
  // Fragments worth splicing in: keywords, punctuation, names, and
  // literals at and beyond the edges of int64.
  const std::vector<std::string> pieces = {
      "SELECT", "FROM", "WHERE", "AND", "IN", "GROUP", "BY", "ORDER",
      "LIMIT", "DESC", "ASC", "SUM", "COUNT", "AVG", "MIN", "(", ")", ",",
      ".", "=", "*", " ", "sales", "time", "month", "product", "group",
      "0", "-1", "999999", "9223372036854775807", "9223372036854775808",
      "99999999999999999999", "\t", "_x"};
  std::mt19937_64 rng(20260907);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 12000; ++i) {
    std::string sql = seeds[pick(seeds.size())];
    const int edits = 1 + static_cast<int>(pick(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = pick(sql.size() + 1);
      switch (pick(5)) {
        case 0:  // byte flip
          if (pos < sql.size()) {
            sql[pos] = static_cast<char>(
                static_cast<unsigned char>(sql[pos]) ^ (1u << pick(8)));
          }
          break;
        case 1:  // random byte inserted
          sql.insert(pos, 1, static_cast<char>(pick(256)));
          break;
        case 2:  // piece inserted
          sql.insert(pos, pieces[pick(pieces.size())]);
          break;
        case 3:  // span deleted
          sql.erase(pos, 1 + pick(8));
          break;
        default:  // truncated
          sql.resize(pos);
          break;
      }
    }
    const auto query = ParseSql(schema_, sql);
    if (query.ok()) {
      ++parsed;
      EXPECT_TRUE(query->Validate(schema_).ok()) << sql;
    } else {
      ++rejected;
      EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument) << sql;
      EXPECT_FALSE(query.status().message().empty()) << sql;
    }
  }
  // The mutations exercise both outcomes.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace mdw
