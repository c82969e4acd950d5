#ifndef MDW_WORKLOAD_QUERY_PARSER_H_
#define MDW_WORKLOAD_QUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "fragment/star_query.h"

namespace mdw {

/// Parses the warehouse's SQL-like star-query dialect into a StarQuery,
/// the textual form of the paper's Sec. 3.1 example plus grouped
/// aggregation and top-k:
///
///   SELECT SUM(UnitsSold), COUNT(*), AVG(DollarSales)
///   FROM sales
///   WHERE time.month IN (3, 4) AND product.group = 41
///   GROUP BY product.family
///   ORDER BY SUM(UnitsSold) DESC LIMIT 5
///
/// Grammar (keywords case-insensitive, clauses in this order):
///   SELECT <item> (, <item>)* | SELECT *
///   FROM <fact table>
///   [WHERE <dim>.<level> = <int> | <dim>.<level> IN (<int>, ...)
///     (AND ...)*]                       -- at most one predicate per dim
///   [GROUP BY <dim>.<level>]
///   [ORDER BY <item ref> [ASC|DESC] [LIMIT <k>]]
///
/// SELECT items are SUM(<measure>), COUNT(*), or AVG(<measure>) with
/// measures UnitsSold and DollarSales; COUNT ignores its argument, any
/// other measure name reads UnitsSold (the dialect's historical aliases),
/// and `*` stands for the default list SUM(UnitsSold), SUM(DollarSales).
/// MIN/MAX are rejected. An ORDER BY item ref is either a 1-based SELECT
/// position or the aggregate expression itself (matched against the
/// SELECT list); the default direction is ASC, and ties always break on
/// ascending group key. LIMIT requires ORDER BY.
///
/// Errors return kInvalidArgument carrying a human-readable diagnostic
/// (unknown dimension/level, out-of-range literal, malformed syntax, ...)
/// — the typed status Warehouse::ExecuteSql surfaces unchanged.
StatusOr<StarQuery> ParseSql(const StarSchema& schema, std::string_view sql);

}  // namespace mdw

#endif  // MDW_WORKLOAD_QUERY_PARSER_H_
