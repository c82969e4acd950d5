#include "fragment/shard_routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "alloc/disk_allocation.h"
#include "fragment/query_planner.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

/// A sharded, fragment-clustered layout in the flat-table form the
/// warehouse keeps: fragment f lives on shard_of[f] at rows
/// [offsets[rank[f]], offsets[rank[f] + 1]), shards laid out one after
/// another with their fragments ascending. Fragment sizes are random and
/// about a fifth of the fragments are empty.
struct Layout {
  std::vector<int> shard_of;
  std::vector<std::int64_t> rank;
  std::vector<std::int64_t> offsets;

  FragmentPlace Locate(FragId id) const {
    const std::int64_t r = rank[static_cast<std::size_t>(id)];
    return {shard_of[static_cast<std::size_t>(id)],
            offsets[static_cast<std::size_t>(r)],
            offsets[static_cast<std::size_t>(r) + 1]};
  }
};

Layout MakeLayout(const Fragmentation& fragmentation, int num_shards,
                  AllocationConfig allocation, std::mt19937_64& rng) {
  const std::int64_t count = fragmentation.FragmentCount();
  Layout layout;
  layout.shard_of.assign(static_cast<std::size_t>(count), 0);
  if (num_shards > 1) {
    allocation.num_disks = num_shards;
    const DiskAllocation disks(&fragmentation, allocation, 0);
    for (FragId f = 0; f < count; ++f) {
      layout.shard_of[static_cast<std::size_t>(f)] = disks.DiskOfFragment(f);
    }
  }
  layout.rank.assign(static_cast<std::size_t>(count), 0);
  std::int64_t next = 0;
  for (int s = 0; s < num_shards; ++s) {
    for (FragId f = 0; f < count; ++f) {
      if (layout.shard_of[static_cast<std::size_t>(f)] == s) {
        layout.rank[static_cast<std::size_t>(f)] = next++;
      }
    }
  }
  layout.offsets.assign(static_cast<std::size_t>(count) + 1, 0);
  for (std::int64_t r = 0; r < count; ++r) {
    const std::int64_t rows = rng() % 5 == 0 ? 0 : 1 + rng() % 40;
    layout.offsets[static_cast<std::size_t>(r) + 1] =
        layout.offsets[static_cast<std::size_t>(r)] + rows;
  }
  return layout;
}

/// One selected fragment as the reference walk sees it.
struct RefFragment {
  FragId id;
  bool covered;
  std::int64_t group;
};

/// The reference enumeration: the plan's slices crossed attribute by
/// attribute (later attributes fastest), each fragment with its coverage
/// and aligned group key computed from its own coordinates.
std::vector<RefFragment> ReferenceFragments(const QueryPlan& plan) {
  const Fragmentation& frag = plan.fragmentation();
  const int n = frag.num_attrs();
  std::int64_t desc_per = 1;
  if (plan.AlignedGrouping()) {
    const FragAttr& attr = frag.attr(plan.group_attr());
    desc_per = frag.schema()
                   .dimension(attr.dim)
                   .hierarchy()
                   .DescendantsPer(plan.group_by()->depth, attr.depth);
  }
  std::vector<RefFragment> out;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> coords(static_cast<std::size_t>(n), 0);
  while (true) {
    bool covered = plan.coverable();
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      coords[u] = plan.slice(i)[cursor[u]];
      covered = covered && plan.covered(i)[cursor[u]];
    }
    const std::int64_t group =
        plan.AlignedGrouping()
            ? coords[static_cast<std::size_t>(plan.group_attr())] / desc_per
            : -1;
    out.push_back({frag.FragmentIdOf(coords), covered, group});
    int i = n - 1;
    for (; i >= 0; --i) {
      auto& c = cursor[static_cast<std::size_t>(i)];
      if (++c < plan.slice(i).size()) break;
      c = 0;
    }
    if (i < 0) break;
  }
  return out;
}

/// The reference router: one fragment at a time, coalescing as the
/// routing contract says.
std::vector<ShardSelection> ReferenceRoute(const QueryPlan& plan,
                                           int num_shards, bool summaries,
                                           const Layout& layout) {
  std::vector<ShardSelection> shards(static_cast<std::size_t>(num_shards));
  for (const RefFragment& f : ReferenceFragments(plan)) {
    const FragmentPlace place = layout.Locate(f.id);
    ShardSelection& sel = shards[static_cast<std::size_t>(place.shard)];
    const bool summarize = summaries && f.covered;
    ++sel.fragments;
    if (summarize) ++sel.fragments_covered;
    if (place.begin == place.end) continue;
    std::vector<RowRange>& ranges = summarize ? sel.summary : sel.scan;
    const bool joins =
        !ranges.empty() && ranges.back().end == place.begin &&
        (!summarize || sel.summary_group.back() == f.group);
    if (joins) {
      ranges.back().end = place.end;
    } else {
      ranges.push_back({place.begin, place.end});
      if (summarize) sel.summary_group.push_back(f.group);
    }
  }
  return shards;
}

void ExpectSameSelections(const std::vector<ShardSelection>& got,
                          const std::vector<ShardSelection>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].scan, want[s].scan) << what << " shard " << s;
    EXPECT_EQ(got[s].summary, want[s].summary) << what << " shard " << s;
    EXPECT_EQ(got[s].summary_group, want[s].summary_group)
        << what << " shard " << s;
    EXPECT_EQ(got[s].fragments, want[s].fragments) << what << " shard " << s;
    EXPECT_EQ(got[s].fragments_covered, want[s].fragments_covered)
        << what << " shard " << s;
  }
}

/// A random query over the tiny APB-1 schema: up to three predicates at
/// random levels with short IN lists (duplicates allowed), and a GROUP BY
/// of kind 0 (none), 1 (aligned: at or above a fragmentation level) or
/// 2 (anything else, usually unaligned).
StarQuery RandomQuery(const StarSchema& schema,
                      const std::vector<FragAttr>& attrs, int group_kind,
                      std::mt19937_64& rng) {
  std::vector<Predicate> predicates;
  std::vector<DimId> dims = {0, 1, 2, 3};
  std::shuffle(dims.begin(), dims.end(), rng);
  const auto num_predicates = static_cast<std::size_t>(rng() % 4);
  for (std::size_t k = 0; k < num_predicates; ++k) {
    const DimId dim = dims[k];
    const auto& h = schema.dimension(dim).hierarchy();
    const auto depth = static_cast<Depth>(
        rng() % static_cast<std::uint64_t>(h.num_levels()));
    const auto card = static_cast<std::uint64_t>(h.Cardinality(depth));
    std::vector<std::int64_t> values(1 + rng() % 4);
    for (auto& v : values) v = static_cast<std::int64_t>(rng() % card);
    predicates.push_back({dim, depth, std::move(values)});
  }
  std::optional<GroupBy> group_by;
  if (group_kind == 1) {
    const FragAttr& attr = attrs[rng() % attrs.size()];
    group_by = GroupBy{attr.dim, static_cast<Depth>(
                                     rng() % static_cast<std::uint64_t>(
                                                 attr.depth + 1))};
  } else if (group_kind == 2) {
    const auto dim = static_cast<DimId>(rng() % 4);
    const auto& h = schema.dimension(dim).hierarchy();
    group_by = GroupBy{dim, static_cast<Depth>(
                                rng() % static_cast<std::uint64_t>(
                                            h.num_levels()))};
  }
  return StarQuery("random", std::move(predicates), AggregateSpec::Default(),
                   group_by);
}

TEST(ShardRoutingTest, RunRouterMatchesPerFragmentReference) {
  const auto schema = std::make_shared<const StarSchema>(MakeTinyApb1Schema());
  const std::vector<std::vector<FragAttr>> fragmentations = {
      {{kApb1Time, 2}, {kApb1Product, 3}},
      {{kApb1Product, 2}, {kApb1Customer, 0}, {kApb1Time, 1}},
      {{kApb1Time, 1}},
      {{kApb1Channel, 0}, {kApb1Product, 4}},
      {{kApb1Customer, 1}, {kApb1Time, 2}},
  };
  const std::vector<AllocationConfig> allocations = {
      {}, {.round_gap = 1}, {.cluster_factor = 3}};
  std::mt19937_64 rng(4242);
  int plans = 0;
  int aligned = 0;
  for (const auto& attrs : fragmentations) {
    const auto frag = std::make_shared<const Fragmentation>(schema.get(), attrs);
    const QueryPlanner planner(schema, frag);
    for (const int shards : {1, 2, 4, 7}) {
      for (const AllocationConfig& allocation : allocations) {
        const Layout layout = MakeLayout(*frag, shards, allocation, rng);
        for (int q = 0; q < 24; ++q) {
          const StarQuery query = RandomQuery(*schema, attrs, q % 3, rng);
          const QueryPlan plan = planner.Plan(query);
          ++plans;
          aligned += plan.AlignedGrouping() ? 1 : 0;
          for (const bool summaries : {false, true}) {
            const std::string what =
                "frag " + std::to_string(attrs.size()) + " shards " +
                std::to_string(shards) + " gap " +
                std::to_string(allocation.round_gap) + " cluster " +
                std::to_string(allocation.cluster_factor) + " query " +
                std::to_string(q) + (summaries ? " summaries" : "");
            const auto want = ReferenceRoute(plan, shards, summaries, layout);
            // Through caller lookups...
            ExpectSameSelections(
                RouteSelectionToShards(
                    plan, shards, summaries,
                    [&](FragId id) { return layout.Locate(id).shard; },
                    [&](FragId id) {
                      const FragmentPlace p = layout.Locate(id);
                      return std::pair<std::int64_t, std::int64_t>{p.begin,
                                                                   p.end};
                    }),
                want, what);
            // ...and through flat-table loads into reused selections, as
            // the warehouse routes.
            std::vector<ShardSelection> reused(
                static_cast<std::size_t>(shards));
            RouteRuns(plan, summaries,
                      [&](FragId id) { return layout.Locate(id); },
                      std::span<ShardSelection>(reused));
            ExpectSameSelections(reused, want, what + " (flat)");
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 5 * 4 * 3 * 24);
  EXPECT_GT(aligned, 100);  // the aligned-group cuts are exercised
}

TEST(ShardRoutingTest, RunsAreMaximalAscendingAndCoverTheFragmentSet) {
  const auto schema = std::make_shared<const StarSchema>(MakeTinyApb1Schema());
  const std::vector<FragAttr> attrs = {
      {kApb1Product, 2}, {kApb1Customer, 0}, {kApb1Time, 2}};
  const auto frag = std::make_shared<const Fragmentation>(schema.get(), attrs);
  const QueryPlanner planner(schema, frag);
  std::mt19937_64 rng(99);
  for (int q = 0; q < 300; ++q) {
    const QueryPlan plan = planner.Plan(RandomQuery(*schema, attrs, q % 3, rng));
    std::vector<RefFragment> walked;
    std::optional<FragmentRun> previous;
    plan.ForEachRun([&](const FragmentRun& run) {
      ASSERT_GE(run.count, 1);
      if (previous.has_value()) {
        const FragId end = previous->first + previous->count;
        EXPECT_LE(end, run.first) << "runs must ascend without overlap";
        EXPECT_FALSE(end == run.first && previous->covered == run.covered &&
                     previous->group == run.group)
            << "abutting runs with equal coverage and group must join";
      }
      previous = run;
      for (FragId id = run.first; id < run.first + run.count; ++id) {
        walked.push_back({id, run.covered, run.group});
      }
    });
    const std::vector<RefFragment> want = ReferenceFragments(plan);
    ASSERT_EQ(walked.size(), want.size()) << "query " << q;
    EXPECT_EQ(static_cast<std::int64_t>(walked.size()), plan.FragmentCount());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(walked[i].id, want[i].id) << "query " << q;
      EXPECT_EQ(walked[i].covered, want[i].covered) << "query " << q;
      EXPECT_EQ(walked[i].group, want[i].group) << "query " << q;
    }
  }
}

TEST(ShardRoutingTest, FullySelectedPlanIsOneRun) {
  const auto schema = std::make_shared<const StarSchema>(MakeTinyApb1Schema());
  const auto frag = std::make_shared<const Fragmentation>(
      schema.get(), std::vector<FragAttr>{{kApb1Time, 2}, {kApb1Product, 3}});
  const QueryPlanner planner(schema, frag);
  int runs = 0;
  planner.Plan(StarQuery("all", {})).ForEachRun([&](const FragmentRun& run) {
    ++runs;
    EXPECT_EQ(run.first, 0);
    EXPECT_EQ(run.count, frag->FragmentCount());
    EXPECT_TRUE(run.covered);
  });
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace mdw
