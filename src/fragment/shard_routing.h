#ifndef MDW_FRAGMENT_SHARD_ROUTING_H_
#define MDW_FRAGMENT_SHARD_ROUTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "fragment/query_planner.h"

namespace mdw {

/// A contiguous physical row range [begin, end).
struct RowRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  std::int64_t rows() const { return end - begin; }

  friend bool operator==(const RowRange& a, const RowRange& b) = default;
};

/// The work a query plan selects on ONE shard of a sharded,
/// fragment-clustered store: maximal runs of residual fragments to scan,
/// maximal runs of fully-covered fragments answerable from measure
/// summaries, and the fragment counts behind them. Empty fragments
/// contribute to the counts but not to the ranges.
struct ShardSelection {
  std::vector<RowRange> scan;
  std::vector<RowRange> summary;
  /// Group key of each summary run, parallel to `summary`. Populated only
  /// for aligned grouped plans (every fragment of a run shares the key —
  /// runs never coalesce across group boundaries then); -1 otherwise.
  std::vector<std::int64_t> summary_group;
  /// Plan fragments routed to this shard.
  std::int64_t fragments = 0;
  /// Fully-covered ones among them (empty fragments included).
  std::int64_t fragments_covered = 0;

  std::int64_t ScanRows() const {
    std::int64_t rows = 0;
    for (const auto& r : scan) rows += r.rows();
    return rows;
  }
};

/// Where one fragment lives in a sharded, fragment-clustered store: its
/// shard and its physical rows [begin, end).
struct FragmentPlace {
  int shard = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Routes the plan's fragment set into `shards` (indexed by shard id),
/// appending to each selection: every selected fragment goes to
/// `locate(id).shard` at its rows `locate(id).{begin, end}`, and
/// fully-covered fragments split into summary runs when
/// `summaries_enabled` (otherwise every fragment is scanned). The plan
/// hands over ascending runs of fragment ids (QueryPlan::ForEachRun) and a
/// shard lays its fragments out ascending too, so per-shard ranges arrive
/// ascending and physically adjacent selected fragments coalesce into
/// maximal runs — the property that keeps scheduling O(selected
/// fragments) and the per-shard merge order fixed.
///
/// For aligned grouped plans (plan.AlignedGrouping()), summary runs are
/// additionally cut at group boundaries and labelled with their group key
/// in `summary_group`, so a prefix-sum fold credits exactly one group.
/// Scan runs stay maximal: the scan kernel reads the group key per row.
///
/// `locate` is inlined into the walk: the warehouse passes plain loads
/// from its flat per-fragment tables, so routing costs a few loads per
/// fragment and no call.
template <typename Locate>
void RouteRuns(const QueryPlan& plan, bool summaries_enabled,
               const Locate& locate, std::span<ShardSelection> shards) {
  plan.ForEachRun([&](const FragmentRun& run) {
    const bool summarize = summaries_enabled && run.covered;
    for (FragId id = run.first; id < run.first + run.count; ++id) {
      const FragmentPlace place = locate(id);
      ShardSelection& sel = shards[static_cast<std::size_t>(place.shard)];
      ++sel.fragments;
      if (summarize) ++sel.fragments_covered;  // empty fragments included
      if (place.begin == place.end) continue;
      if (summarize) {
        if (!sel.summary.empty() && sel.summary.back().end == place.begin &&
            sel.summary_group.back() == run.group) {
          sel.summary.back().end = place.end;
        } else {
          sel.summary.push_back({place.begin, place.end});
          sel.summary_group.push_back(run.group);
        }
      } else if (!sel.scan.empty() && sel.scan.back().end == place.begin) {
        sel.scan.back().end = place.end;
      } else {
        sel.scan.push_back({place.begin, place.end});
      }
    }
  });
}

/// RouteRuns over caller-supplied lookups into fresh selections, one per
/// shard: fragment `id` goes to `shard_of(id)` (checked to lie in
/// [0, num_shards)) at rows `rows_of(id)` (a pair {begin, end}).
template <typename ShardOf, typename RowsOf>
std::vector<ShardSelection> RouteSelectionToShards(const QueryPlan& plan,
                                                   int num_shards,
                                                   bool summaries_enabled,
                                                   const ShardOf& shard_of,
                                                   const RowsOf& rows_of) {
  MDW_CHECK(num_shards >= 1, "need at least one shard");
  std::vector<ShardSelection> shards(static_cast<std::size_t>(num_shards));
  RouteRuns(
      plan, summaries_enabled,
      [&](FragId id) {
        const int s = shard_of(id);
        MDW_CHECK(s >= 0 && s < num_shards, "shard out of range");
        const auto [begin, end] = rows_of(id);
        return FragmentPlace{s, begin, end};
      },
      std::span<ShardSelection>(shards));
  return shards;
}

}  // namespace mdw

#endif  // MDW_FRAGMENT_SHARD_ROUTING_H_
