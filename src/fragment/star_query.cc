#include "fragment/star_query.h"

#include "common/check.h"
#include "schema/apb1.h"

namespace mdw {

StarQuery::StarQuery(std::string name, std::vector<Predicate> predicates)
    : StarQuery(std::move(name), std::move(predicates),
                AggregateSpec::Default()) {}

StarQuery::StarQuery(std::string name, std::vector<Predicate> predicates,
                     AggregateSpec aggregates, std::optional<GroupBy> group_by,
                     std::optional<OrderBy> order_by)
    : name_(std::move(name)),
      predicates_(std::move(predicates)),
      aggregates_(std::move(aggregates)),
      group_by_(group_by),
      order_by_(order_by) {
  for (std::size_t i = 0; i < predicates_.size(); ++i) {
    MDW_CHECK(!predicates_[i].values.empty(),
              "predicate needs at least one value");
    for (std::size_t j = 0; j < i; ++j) {
      MDW_CHECK(predicates_[j].dim != predicates_[i].dim,
                "at most one predicate per dimension");
    }
  }
  MDW_CHECK(!aggregates_.items.empty(), "aggregate spec needs at least one item");
  if (order_by_.has_value()) {
    MDW_CHECK(order_by_->item >= 0 &&
                  order_by_->item < static_cast<int>(aggregates_.items.size()),
              "ORDER BY item out of range of the aggregate spec");
    MDW_CHECK(order_by_->limit >= 0, "LIMIT must be non-negative");
  }
}

StarQuery StarQuery::WithAggregates(AggregateSpec aggregates) const {
  return StarQuery(name_, predicates_, std::move(aggregates), group_by_,
                   order_by_);
}

StarQuery StarQuery::WithGroupBy(GroupBy group_by) const {
  return StarQuery(name_, predicates_, aggregates_, group_by, order_by_);
}

StarQuery StarQuery::WithOrderBy(OrderBy order_by) const {
  return StarQuery(name_, predicates_, aggregates_, group_by_, order_by);
}

const Predicate* StarQuery::PredicateOn(DimId dim) const {
  for (const auto& p : predicates_) {
    if (p.dim == dim) return &p;
  }
  return nullptr;
}

Status StarQuery::Validate(const StarSchema& schema) const {
  const auto check_attr = [&](DimId dim, Depth depth,
                              const char* what) -> Status {
    if (dim < 0 || dim >= schema.num_dimensions()) {
      return Status::InvalidArgument(std::string(what) + " dimension " +
                                     std::to_string(dim) + " out of range");
    }
    const auto& h = schema.dimension(dim).hierarchy();
    if (depth < 0 || depth >= h.num_levels()) {
      return Status::InvalidArgument(
          std::string(what) + " level " + std::to_string(depth) +
          " out of range for dimension '" + schema.dimension(dim).name() +
          "'");
    }
    return Status::Ok();
  };
  for (const auto& p : predicates_) {
    if (Status s = check_attr(p.dim, p.depth, "predicate"); !s.ok()) return s;
    if (p.values.empty()) {
      return Status::InvalidArgument("predicate needs at least one value");
    }
    const std::int64_t card =
        schema.dimension(p.dim).hierarchy().Cardinality(p.depth);
    for (const auto value : p.values) {
      if (value < 0 || value >= card) {
        return Status::InvalidArgument(
            "predicate value " + std::to_string(value) + " on '" +
            schema.dimension(p.dim).name() + "' outside [0, " +
            std::to_string(card) + ")");
      }
    }
  }
  if (group_by_.has_value()) {
    return check_attr(group_by_->dim, group_by_->depth, "GROUP BY");
  }
  return Status::Ok();
}

double StarQuery::Selectivity(const StarSchema& schema) const {
  double selectivity = 1.0;
  for (const auto& p : predicates_) {
    const auto& h = schema.dimension(p.dim).hierarchy();
    selectivity *= static_cast<double>(p.values.size()) /
                   static_cast<double>(h.Cardinality(p.depth));
  }
  return selectivity;
}

double StarQuery::ExpectedHits(const StarSchema& schema) const {
  return Selectivity(schema) * static_cast<double>(schema.FactCount());
}

namespace apb1_queries {

// Depth constants of the APB-1 hierarchies (root = 0).
namespace {
constexpr Depth kProductGroup = 3;
constexpr Depth kProductCode = 5;
constexpr Depth kCustomerStore = 1;
constexpr Depth kTimeQuarter = 1;
constexpr Depth kTimeMonth = 2;
}  // namespace

StarQuery OneStore(std::int64_t store) {
  return StarQuery("1STORE", {{kApb1Customer, kCustomerStore, {store}}},
                   AggregateSpec::Default());
}

StarQuery OneMonth(std::int64_t month) {
  return StarQuery("1MONTH", {{kApb1Time, kTimeMonth, {month}}},
                   AggregateSpec::Default());
}

StarQuery OneCode(std::int64_t code) {
  return StarQuery("1CODE", {{kApb1Product, kProductCode, {code}}},
                   AggregateSpec::Default());
}

StarQuery OneMonthOneGroup(std::int64_t month, std::int64_t group) {
  return StarQuery("1MONTH1GROUP",
                   {{kApb1Time, kTimeMonth, {month}},
                    {kApb1Product, kProductGroup, {group}}},
                   AggregateSpec::Default());
}

StarQuery OneCodeOneMonth(std::int64_t code, std::int64_t month) {
  return StarQuery("1CODE1MONTH",
                   {{kApb1Product, kProductCode, {code}},
                    {kApb1Time, kTimeMonth, {month}}},
                   AggregateSpec::Default());
}

StarQuery OneCodeOneQuarter(std::int64_t code, std::int64_t quarter) {
  return StarQuery("1CODE1QUARTER",
                   {{kApb1Product, kProductCode, {code}},
                    {kApb1Time, kTimeQuarter, {quarter}}},
                   AggregateSpec::Default());
}

StarQuery OneQuarter(std::int64_t quarter) {
  return StarQuery("1QUARTER", {{kApb1Time, kTimeQuarter, {quarter}}},
                   AggregateSpec::Default());
}

StarQuery OneGroupOneStore(std::int64_t group, std::int64_t store) {
  return StarQuery("1GROUP1STORE",
                   {{kApb1Product, kProductGroup, {group}},
                    {kApb1Customer, kCustomerStore, {store}}},
                   AggregateSpec::Default());
}

}  // namespace apb1_queries

}  // namespace mdw
