#ifndef MDW_FRAGMENT_STAR_QUERY_H_
#define MDW_FRAGMENT_STAR_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "schema/star_schema.h"

namespace mdw {

/// An exact-match (or IN-list) predicate on one dimension attribute:
/// "dimension `dim` at hierarchy depth `depth` equals one of `values`".
/// The paper's query types all use a single value; IN-lists generalise the
/// planner without changing its structure.
struct Predicate {
  DimId dim;
  Depth depth;
  std::vector<std::int64_t> values;
};

/// Aggregate function of one SELECT-list item. AVG is derived at
/// result-build time from the integer SUM and COUNT partials, so execution
/// accumulates the same bit-identical integers regardless of function.
enum class AggFn { kSum, kCount, kAvg };

/// The fact-table measure an aggregate item reads. COUNT ignores it.
enum class MeasureId { kUnitsSold, kDollarSales };

/// One SELECT-list item: fn(measure), e.g. SUM(DollarSales).
struct AggItem {
  AggFn fn = AggFn::kSum;
  MeasureId measure = MeasureId::kUnitsSold;

  friend bool operator==(const AggItem& a, const AggItem& b) = default;
};

/// The explicit aggregate list of a star query. Replaces the historic
/// implicit "SUM over all measures" shape, which `Default()` reproduces.
struct AggregateSpec {
  std::vector<AggItem> items;

  /// SUM(UnitsSold), SUM(DollarSales) — the pre-AggregateSpec behaviour.
  static AggregateSpec Default() {
    return {{{AggFn::kSum, MeasureId::kUnitsSold},
             {AggFn::kSum, MeasureId::kDollarSales}}};
  }

  friend bool operator==(const AggregateSpec& a,
                         const AggregateSpec& b) = default;
};

/// GROUP BY one dimension hierarchy attribute: one result row per distinct
/// value of `dim` at `depth` (rollup = re-running with a smaller depth).
struct GroupBy {
  DimId dim = 0;
  Depth depth = 0;

  friend bool operator==(const GroupBy& a, const GroupBy& b) = default;
};

/// ORDER BY <select item> [ASC|DESC] [LIMIT k]. `item` indexes the
/// AggregateSpec; `limit` == 0 keeps every group (plain ORDER BY). Ties
/// break on ascending group key so top-k is deterministic.
struct OrderBy {
  int item = 0;
  bool descending = false;
  std::int64_t limit = 0;

  friend bool operator==(const OrderBy& a, const OrderBy& b) = default;
};

/// A star (join) query: selections on dimension hierarchy attributes, an
/// aggregate list over the matching fact rows (paper Sec. 3.1), and
/// optionally a GROUP BY attribute with ORDER BY ... LIMIT on top. The
/// two-argument constructor keeps the historic shape: SUM over all
/// measures, no grouping.
class StarQuery {
 public:
  StarQuery(std::string name, std::vector<Predicate> predicates);
  StarQuery(std::string name, std::vector<Predicate> predicates,
            AggregateSpec aggregates, std::optional<GroupBy> group_by = {},
            std::optional<OrderBy> order_by = {});

  const std::string& name() const { return name_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  int num_predicates() const { return static_cast<int>(predicates_.size()); }

  const AggregateSpec& aggregates() const { return aggregates_; }
  const std::optional<GroupBy>& group_by() const { return group_by_; }
  const std::optional<OrderBy>& order_by() const { return order_by_; }
  bool grouped() const { return group_by_.has_value(); }

  /// Copy-with builders, so the apb1_queries factories compose with
  /// grouping: apb1_queries::OneQuarter(2).WithGroupBy({kApb1Time, 2}).
  StarQuery WithAggregates(AggregateSpec aggregates) const;
  StarQuery WithGroupBy(GroupBy group_by) const;
  StarQuery WithOrderBy(OrderBy order_by) const;

  /// The predicate on `dim`, or nullptr.
  const Predicate* PredicateOn(DimId dim) const;

  /// kInvalidArgument unless every predicate and the GROUP BY name an
  /// existing dimension and hierarchy level of `schema`, and every
  /// predicate value lies in [0, Cardinality(depth)) of a non-empty IN
  /// list. Planning a query that fails this aborts, so callers taking
  /// programmatic queries check it first.
  Status Validate(const StarSchema& schema) const;

  /// Fraction of the fact table matching all predicates assuming uniform,
  /// independent dimensions (the paper's uniformity assumption):
  /// product of |values| / Cardinality(depth).
  double Selectivity(const StarSchema& schema) const;

  /// Expected number of hit rows: Selectivity * N.
  double ExpectedHits(const StarSchema& schema) const;

 private:
  std::string name_;
  std::vector<Predicate> predicates_;
  AggregateSpec aggregates_ = AggregateSpec::Default();
  std::optional<GroupBy> group_by_;
  std::optional<OrderBy> order_by_;
};

/// Factory helpers for the paper's APB-1 query types (Sec. 3.1/6).
/// Dimension ids follow schema construction order (see schema/apb1.h).
namespace apb1_queries {

/// 1STORE: aggregate one customer store over everything else.
StarQuery OneStore(std::int64_t store);
/// 1MONTH: aggregate one month.
StarQuery OneMonth(std::int64_t month);
/// 1CODE: aggregate one product code.
StarQuery OneCode(std::int64_t code);
/// 1MONTH1GROUP: one month and one product group (two-dimensional join).
StarQuery OneMonthOneGroup(std::int64_t month, std::int64_t group);
/// 1CODE1MONTH: one product code within one month.
StarQuery OneCodeOneMonth(std::int64_t code, std::int64_t month);
/// 1CODE1QUARTER: one product code within one quarter.
StarQuery OneCodeOneQuarter(std::int64_t code, std::int64_t quarter);
/// 1QUARTER: aggregate one quarter.
StarQuery OneQuarter(std::int64_t quarter);
/// 1GROUP1STORE: one product group and one customer store.
StarQuery OneGroupOneStore(std::int64_t group, std::int64_t store);

}  // namespace apb1_queries

}  // namespace mdw

#endif  // MDW_FRAGMENT_STAR_QUERY_H_
