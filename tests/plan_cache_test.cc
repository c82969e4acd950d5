#include "fragment/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/warehouse.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

constexpr std::uint64_t kSeed = 42;

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

Warehouse TinyMaterialized(std::size_t plan_cache_capacity = 256) {
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = MonthGroup(),
                    .backend = BackendKind::kMaterialized,
                    .seed = kSeed,
                    .plan_cache_capacity = plan_cache_capacity});
}

// ---------------------------------------------------------------------------
// Canonical signature

TEST(CanonicalQuerySignatureTest, IgnoresQueryName) {
  const StarQuery a("1MONTH", {{kApb1Time, 2, {3}}});
  const StarQuery b("some other label", {{kApb1Time, 2, {3}}});
  EXPECT_EQ(CanonicalQuerySignature(a), CanonicalQuerySignature(b));
}

TEST(CanonicalQuerySignatureTest, IgnoresPredicateAndValueOrder) {
  const StarQuery a("q", {{kApb1Time, 2, {3, 1}}, {kApb1Product, 3, {7}}});
  const StarQuery b("q", {{kApb1Product, 3, {7}}, {kApb1Time, 2, {1, 3}}});
  EXPECT_EQ(CanonicalQuerySignature(a), CanonicalQuerySignature(b));
}

TEST(CanonicalQuerySignatureTest, DistinguishesDimDepthAndValues) {
  const StarQuery base("q", {{kApb1Time, 2, {3}}});
  const StarQuery other_value("q", {{kApb1Time, 2, {4}}});
  const StarQuery other_depth("q", {{kApb1Time, 1, {3}}});
  const StarQuery other_dim("q", {{kApb1Product, 2, {3}}});
  const StarQuery more_values("q", {{kApb1Time, 2, {3, 4}}});
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(other_value));
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(other_depth));
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(other_dim));
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(more_values));
}

TEST(CanonicalQuerySignatureTest, MultiDigitValuesDoNotCollide) {
  // d0@2:12; must differ from d0@2:1,2; — the separators guarantee it.
  const StarQuery a("q", {{kApb1Time, 2, {12}}});
  const StarQuery b("q", {{kApb1Time, 2, {1, 2}}});
  EXPECT_NE(CanonicalQuerySignature(a), CanonicalQuerySignature(b));
}

// ---------------------------------------------------------------------------
// PlanCache behaviour

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest()
      : schema_(std::make_shared<const StarSchema>(MakeTinyApb1Schema())),
        fragmentation_(std::make_shared<const Fragmentation>(schema_.get(),
                                                             MonthGroup())),
        planner_(schema_, fragmentation_) {}

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const Fragmentation> fragmentation_;
  QueryPlanner planner_;
};

TEST_F(PlanCacheTest, HitsAndMissesAreCounted) {
  PlanCache cache(8);
  const auto q = apb1_queries::OneMonth(3);
  EXPECT_EQ(cache.Lookup(q), nullptr);

  const auto first = cache.GetOrPlan(q, planner_);
  const auto second = cache.GetOrPlan(q, planner_);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // same cached object

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // the Lookup and the first GetOrPlan
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
}

TEST_F(PlanCacheTest, HitDoesNotInvokeThePlanner) {
  PlanCache cache(8);
  const auto q = apb1_queries::OneQuarter(2);
  cache.GetOrPlan(q, planner_);
  const auto before = QueryPlanner::LifetimePlanCount();
  cache.GetOrPlan(q, planner_);
  EXPECT_EQ(QueryPlanner::LifetimePlanCount(), before);
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const auto a = apb1_queries::OneMonth(1);
  const auto b = apb1_queries::OneMonth(2);
  const auto c = apb1_queries::OneMonth(3);

  cache.GetOrPlan(a, planner_);
  cache.GetOrPlan(b, planner_);
  cache.GetOrPlan(a, planner_);  // touch a, making b the LRU entry
  cache.GetOrPlan(c, planner_);  // evicts b

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST_F(PlanCacheTest, EvictedPlanStaysValid) {
  std::shared_ptr<const QueryPlan> plan;
  {
    PlanCache cache(1);
    plan = cache.GetOrPlan(apb1_queries::OneMonth(1), planner_);
    cache.GetOrPlan(apb1_queries::OneMonth(2), planner_);  // evicts it
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
  // The plan outlives both its eviction and the cache itself.
  EXPECT_EQ(plan->query_class(), QueryClass::kQ1);
  EXPECT_GT(plan->FragmentCount(), 0);
}

TEST_F(PlanCacheTest, ClearDropsEntriesButKeepsCounters) {
  PlanCache cache(8);
  cache.GetOrPlan(apb1_queries::OneMonth(1), planner_);
  cache.GetOrPlan(apb1_queries::OneMonth(1), planner_);
  cache.Clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PlanCacheTest, PredicateAndInListOrderShareOneEntry) {
  PlanCache cache(8);
  const StarQuery a("a", {{kApb1Time, 2, {3, 1, 1}}, {kApb1Product, 3, {7}}});
  const StarQuery b("b", {{kApb1Product, 3, {7}}, {kApb1Time, 2, {1, 3, 1}}});
  EXPECT_EQ(StructuralQueryHash(a), StructuralQueryHash(b));
  const auto first = cache.GetOrPlan(a, planner_);
  EXPECT_EQ(cache.GetOrPlan(b, planner_).get(), first.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST_F(PlanCacheTest, EachStructuralFieldSeparatesEntries) {
  const StarQuery base("q", {{kApb1Time, 2, {3, 4}}, {kApb1Product, 3, {7}}},
                       AggregateSpec::Default());
  const std::vector<StarQuery> variants = {
      base,
      // another dimension, depth, value set, or value multiplicity
      StarQuery("q", {{kApb1Time, 2, {3, 4}}, {kApb1Customer, 0, {7}}}),
      StarQuery("q", {{kApb1Time, 1, {3, 2}}, {kApb1Product, 3, {7}}}),
      StarQuery("q", {{kApb1Time, 2, {3, 5}}, {kApb1Product, 3, {7}}}),
      StarQuery("q", {{kApb1Time, 2, {3, 4, 4}}, {kApb1Product, 3, {7}}}),
      StarQuery("q", {{kApb1Time, 2, {3, 4}}}),
      // aggregate item order
      base.WithAggregates({{{AggFn::kSum, MeasureId::kDollarSales},
                            {AggFn::kSum, MeasureId::kUnitsSold}}}),
      base.WithAggregates({{{AggFn::kAvg, MeasureId::kUnitsSold},
                            {AggFn::kSum, MeasureId::kDollarSales}}}),
      // GROUP BY present, and at another attribute
      base.WithGroupBy({kApb1Time, 1}),
      base.WithGroupBy({kApb1Time, 0}),
      base.WithGroupBy({kApb1Product, 1}),
  };
  PlanCache cache(64);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(StructuralQueryHash(variants[i]),
                StructuralQueryHash(variants[j]))
          << i << " vs " << j;
    }
    cache.GetOrPlan(variants[i], planner_);
  }
  EXPECT_EQ(cache.stats().misses, variants.size());
  EXPECT_EQ(cache.stats().size, variants.size());
  for (const auto& q : variants) EXPECT_NE(cache.Lookup(q), nullptr);
  EXPECT_EQ(cache.stats().hits, variants.size());
  // ORDER BY / LIMIT are applied after execution and share the entry.
  EXPECT_NE(cache.Lookup(base.WithOrderBy({1, true, 3})), nullptr);
}

TEST_F(PlanCacheTest, MultiDigitValuesKeepSeparateEntries) {
  PlanCache cache(8);
  const StarQuery a("q", {{kApb1Time, 2, {12}}});
  const StarQuery b("q", {{kApb1Time, 2, {1, 2}}});
  const auto plan_a = cache.GetOrPlan(a, planner_);
  const auto plan_b = cache.GetOrPlan(b, planner_);
  EXPECT_NE(plan_a.get(), plan_b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(plan_b->FragmentCount(), 2 * plan_a->FragmentCount());
}

/// An LRU keyed by the text signature: the behaviour the structural key
/// must reproduce exactly.
class SignatureLru {
 public:
  explicit SignatureLru(std::size_t capacity) : capacity_(capacity) {}

  /// GetOrPlan's bookkeeping; true on a hit.
  bool Get(const StarQuery& query) {
    const std::string key = CanonicalQuerySignature(query);
    if (Touch(key)) return true;
    ++misses;
    lru_.push_front(key);
    by_key_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      by_key_.erase(lru_.back());
      lru_.pop_back();
      ++evictions;
    }
    return false;
  }

  /// Lookup's bookkeeping; true on a hit.
  bool Peek(const StarQuery& query) {
    if (Touch(CanonicalQuerySignature(query))) return true;
    ++misses;
    return false;
  }

  std::size_t size() const { return lru_.size(); }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  bool Touch(const std::string& key) {
    const auto it = by_key_.find(key);
    if (it == by_key_.end()) return false;
    ++hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  std::size_t capacity_;
  std::list<std::string> lru_;
  std::unordered_map<std::string, std::list<std::string>::iterator> by_key_;
};

/// A random query over a small universe, so a stream revisits shapes
/// under shuffled predicate and IN-list orders.
StarQuery RandomCacheQuery(std::mt19937_64& rng) {
  std::vector<Predicate> predicates;
  if (rng() % 4 != 0) {
    std::vector<std::int64_t> months = {static_cast<std::int64_t>(rng() % 4)};
    if (rng() % 3 == 0) months.push_back(static_cast<std::int64_t>(rng() % 4));
    predicates.push_back({kApb1Time, 2, months});
  }
  if (rng() % 2 == 0) {
    predicates.push_back(
        {kApb1Product, static_cast<Depth>(2 + rng() % 2), {1, 0}});
  }
  std::shuffle(predicates.begin(), predicates.end(), rng);
  for (auto& p : predicates) std::shuffle(p.values.begin(), p.values.end(), rng);
  AggregateSpec aggregates = AggregateSpec::Default();
  if (rng() % 3 == 0) std::swap(aggregates.items[0], aggregates.items[1]);
  std::optional<GroupBy> group_by;
  if (rng() % 3 == 0) group_by = GroupBy{kApb1Time, static_cast<Depth>(rng() % 2)};
  return StarQuery("r", std::move(predicates), std::move(aggregates),
                   group_by);
}

TEST_F(PlanCacheTest, HitsMissesAndEvictionsMatchTheSignatureKeyedLru) {
  for (const std::size_t capacity : {1u, 4u, 16u}) {
    PlanCache cache(capacity);
    SignatureLru reference(capacity);
    std::mt19937_64 rng(capacity);
    for (int i = 0; i < 3000; ++i) {
      const StarQuery query = RandomCacheQuery(rng);
      if (i % 5 == 4) {
        EXPECT_EQ(cache.Lookup(query) != nullptr, reference.Peek(query));
      } else {
        const auto before = cache.stats().hits;
        const auto plan = cache.GetOrPlan(query, planner_);
        EXPECT_EQ(cache.stats().hits > before, reference.Get(query));
        EXPECT_EQ(plan->FragmentCount(), planner_.Plan(query).FragmentCount());
      }
      const auto stats = cache.stats();
      ASSERT_EQ(stats.hits, reference.hits) << "capacity " << capacity;
      ASSERT_EQ(stats.misses, reference.misses) << "capacity " << capacity;
      ASSERT_EQ(stats.evictions, reference.evictions)
          << "capacity " << capacity;
      ASSERT_EQ(stats.size, reference.size()) << "capacity " << capacity;
    }
  }
}

TEST_F(PlanCacheTest, ConcurrentHitsMissesAndEvictionsStayConsistent) {
  // A working set twice the capacity: every thread hits, misses and
  // evicts, and every plan it gets back must be its query's plan.
  std::mt19937_64 rng(7);
  std::vector<StarQuery> queries;
  std::vector<std::int64_t> fragments;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(RandomCacheQuery(rng));
    fragments.push_back(planner_.Plan(queries.back()).FragmentCount());
  }
  PlanCache cache(16);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 local(100 + t);
      for (int i = 0; i < kOps; ++i) {
        const std::size_t q = local() % queries.size();
        const auto plan = i % 7 == 0 ? cache.Lookup(queries[q])
                                     : cache.GetOrPlan(queries[q], planner_);
        if (plan != nullptr && plan->FragmentCount() != fragments[q]) {
          ++wrong[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const int w : wrong) EXPECT_EQ(w, 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_LE(stats.size, 16u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Every eviction removed an inserted entry, and inserts <= misses.
  EXPECT_LE(stats.evictions + stats.size, stats.misses);
}

// ---------------------------------------------------------------------------
// Warehouse wiring: shared across copies, observable via stats

TEST(WarehousePlanCacheTest, RepeatedExecutionHitsTheCache) {
  const Warehouse wh = TinyMaterialized();
  const auto q = apb1_queries::OneMonthOneGroup(3, 7);
  wh.Execute(q);
  wh.Execute(q);
  wh.Execute(q);
  const auto stats = wh.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.capacity, 256u);
}

TEST(WarehousePlanCacheTest, CopiesShareOneCache) {
  const Warehouse original = TinyMaterialized();
  const Warehouse copy = original;
  const auto q = apb1_queries::OneQuarter(1);

  original.Execute(q);        // miss, inserts
  copy.Execute(q);            // hit through the shared cache
  EXPECT_EQ(copy.plan_cache_stats().hits, 1u);
  EXPECT_EQ(original.plan_cache_stats().hits, 1u);
  EXPECT_EQ(original.plan_cache_stats().misses, 1u);

  // PlanShared returns the very same cached object through either copy.
  EXPECT_EQ(original.PlanShared(q).get(), copy.PlanShared(q).get());
}

TEST(WarehousePlanCacheTest, ZeroCapacityDisablesCaching) {
  const Warehouse wh = TinyMaterialized(/*plan_cache_capacity=*/0);
  const auto q = apb1_queries::OneMonth(3);
  const auto before = QueryPlanner::LifetimePlanCount();
  wh.Execute(q);
  wh.Execute(q);
  EXPECT_EQ(QueryPlanner::LifetimePlanCount(), before + 2);
  const auto stats = wh.plan_cache_stats();
  EXPECT_EQ(stats.capacity, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

}  // namespace
}  // namespace mdw
