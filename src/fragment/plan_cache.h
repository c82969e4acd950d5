#ifndef MDW_FRAGMENT_PLAN_CACHE_H_
#define MDW_FRAGMENT_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fragment/query_planner.h"
#include "fragment/star_query.h"

namespace mdw {

/// Canonical cache key of a star query: its predicates ordered by
/// dimension with sorted IN-list values, followed by the aggregate spec
/// and the GROUP BY attribute (if any) — so a grouped query and its
/// ungrouped twin never alias to one plan. The query name and ORDER BY /
/// LIMIT are deliberately excluded (they never influence planning: the
/// name is cosmetic, and top-k ordering is applied to the finished group
/// table after execution). Two queries have equal signatures iff the
/// planner derives identical plans for them under any fixed fragmentation
/// AND they aggregate the same items.
std::string CanonicalQuerySignature(const StarQuery& query);

/// 64-bit hash of the structure CanonicalQuerySignature renders: equal
/// signatures give equal hashes (predicate order and IN-list order do
/// not matter), and distinct signatures almost always give distinct
/// hashes. Allocates nothing. The plan cache keys its entries by it.
std::uint64_t StructuralQueryHash(const StarQuery& query);

/// A memoizing, LRU-evicting cache of derived QueryPlans. Entries are
/// keyed by StructuralQueryHash and every hit is confirmed by a full
/// structural comparison with the resident entry, so two queries share an
/// entry exactly when their CanonicalQuerySignatures are equal (a hash
/// collision costs a miss, never a wrong plan). A hit allocates nothing
/// unless an IN list of more than 64 values arrives unsorted.
/// One cache serves exactly one fragmentation
/// (plans are only valid for the fragmentation they were derived from),
/// which is why mdw::Warehouse owns one per façade and shares it between
/// copies rather than keying entries by fragmentation as well.
///
/// Entries are handed out as shared_ptr<const QueryPlan>, so a cached
/// plan stays valid even after eviction or cache destruction — eviction
/// only drops the cache's own reference. All methods are thread-safe.
class PlanCache {
 public:
  /// Hit/miss observability snapshot (see Warehouse::plan_cache_stats()).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< lookups that found no resident plan
    std::uint64_t evictions = 0;   ///< entries dropped by LRU pressure
    std::size_t size = 0;          ///< entries currently resident
    std::size_t capacity = 0;

    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// `capacity` is the maximum number of resident plans; must be >= 1
  /// (callers that want caching off simply don't construct a cache).
  explicit PlanCache(std::size_t capacity);

  /// The cached plan for `query`, or — on a miss — the plan freshly
  /// derived through `planner`, inserted (evicting the least recently
  /// used entry when at capacity) and returned.
  std::shared_ptr<const QueryPlan> GetOrPlan(const StarQuery& query,
                                             const QueryPlanner& planner);

  /// The cached plan for `query`, or nullptr; counts as a hit/miss but
  /// never derives or inserts.
  std::shared_ptr<const QueryPlan> Lookup(const StarQuery& query) const;

  std::size_t capacity() const { return capacity_; }
  Stats stats() const;

  /// Drops all entries (handed-out plans stay valid); keeps counters.
  void Clear();

 private:
  /// A resident plan with the canonical structure of the query it was
  /// derived for: predicates ascending by dimension, each IN list sorted.
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<Predicate> predicates;
    std::vector<AggItem> items;
    std::optional<GroupBy> group_by;
    std::shared_ptr<const QueryPlan> plan;

    /// True iff `query` has this entry's canonical structure.
    bool Matches(const StarQuery& query) const;
  };
  using LruList = std::list<Entry>;

  /// The resident entry for `query` (hash `hash`), moved to the LRU front,
  /// or nullptr. Requires mu_.
  const Entry* FindLocked(const StarQuery& query, std::uint64_t hash) const;

  std::size_t capacity_;
  mutable std::mutex mu_;
  mutable LruList lru_;  ///< front = most recently used
  std::unordered_multimap<std::uint64_t, LruList::iterator> by_hash_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace mdw

#endif  // MDW_FRAGMENT_PLAN_CACHE_H_
