#include "fragment/plan_cache.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <span>

#include "common/check.h"

namespace mdw {

namespace {

/// The query's predicates in canonical order: ascending by dimension
/// (StarQuery allows at most one predicate per dimension, so dim is a
/// unique sort key) with each IN list sorted. Predicate order and IN-list
/// order never change the derived plan; duplicate values are kept, since
/// they change the plan's selectivity and bitmap count.
std::vector<Predicate> CanonicalPredicates(const StarQuery& query) {
  std::vector<Predicate> preds = query.predicates();
  std::sort(preds.begin(), preds.end(),
            [](const Predicate& a, const Predicate& b) { return a.dim < b.dim; });
  for (Predicate& p : preds) std::sort(p.values.begin(), p.values.end());
  return preds;
}

/// splitmix64's finalizer: a bijective, well-mixed 64-bit map.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Folds `v` into the running hash `h` (order matters).
std::uint64_t Step(std::uint64_t h, std::uint64_t v) { return Mix(Mix(h) ^ v); }

/// True iff `values` holds the same multiset as the ascending `sorted`.
bool SameValues(const std::vector<std::int64_t>& sorted,
                const std::vector<std::int64_t>& values) {
  if (sorted.size() != values.size()) return false;
  if (std::is_sorted(values.begin(), values.end())) return sorted == values;
  // An unsorted IN list is compared through a sorted copy, kept on the
  // stack unless the list is long.
  constexpr std::size_t kInline = 64;
  std::array<std::int64_t, kInline> inline_copy;
  std::vector<std::int64_t> heap_copy;
  std::span<std::int64_t> copy(inline_copy.data(), values.size());
  if (values.size() > kInline) {
    heap_copy.resize(values.size());
    copy = heap_copy;
  }
  std::copy(values.begin(), values.end(), copy.begin());
  std::sort(copy.begin(), copy.end());
  return std::equal(copy.begin(), copy.end(), sorted.begin());
}

}  // namespace

std::string CanonicalQuerySignature(const StarQuery& query) {
  std::string signature;
  for (const Predicate& p : CanonicalPredicates(query)) {
    signature += 'd';
    signature += std::to_string(p.dim);
    signature += '@';
    signature += std::to_string(p.depth);
    signature += ':';
    for (const auto v : p.values) {
      signature += std::to_string(v);
      signature += ',';
    }
    signature += ';';
  }
  // Aggregate spec: item order matters (it is the SELECT-list order the
  // result table exposes), so it is canonical as written.
  signature += "|a";
  for (const AggItem& item : query.aggregates().items) {
    signature += std::to_string(static_cast<int>(item.fn));
    signature += '.';
    signature += std::to_string(static_cast<int>(item.measure));
    signature += ',';
  }
  // GROUP BY attribute: grouped plans carry per-group classification, so
  // they must never alias with the ungrouped signature.
  if (query.group_by().has_value()) {
    signature += "|g";
    signature += std::to_string(query.group_by()->dim);
    signature += '@';
    signature += std::to_string(query.group_by()->depth);
  }
  return signature;
}

std::uint64_t StructuralQueryHash(const StarQuery& query) {
  // Commutative sums make predicate order and IN-list order irrelevant
  // without sorting anything; each sum term is fully mixed, so equal
  // sums of distinct multisets are as unlikely as any 64-bit collision.
  std::uint64_t predicates = 0;
  for (const Predicate& p : query.predicates()) {
    std::uint64_t values = 0;
    for (const auto v : p.values) values += Mix(static_cast<std::uint64_t>(v));
    std::uint64_t h = Step(Mix(static_cast<std::uint64_t>(p.dim)),
                           static_cast<std::uint64_t>(p.depth));
    h = Step(Step(h, p.values.size()), values);
    predicates += Mix(h);
  }
  const std::vector<AggItem>& items = query.aggregates().items;
  std::uint64_t h = Step(predicates, items.size());
  for (const AggItem& item : items) {
    h = Step(h, static_cast<std::uint64_t>(item.fn) << 8 |
                    static_cast<std::uint64_t>(item.measure));
  }
  const std::optional<GroupBy>& group_by = query.group_by();
  if (!group_by.has_value()) return Step(h, 0);
  return Step(Step(Step(h, 1), static_cast<std::uint64_t>(group_by->dim)),
              static_cast<std::uint64_t>(group_by->depth));
}

bool PlanCache::Entry::Matches(const StarQuery& query) const {
  if (query.aggregates().items != items || query.group_by() != group_by ||
      query.predicates().size() != predicates.size()) {
    return false;
  }
  // Both sides hold at most one predicate per dimension, so matching
  // every query predicate by dimension pairs the two sets one to one.
  for (const Predicate& p : query.predicates()) {
    const auto it =
        std::find_if(predicates.begin(), predicates.end(),
                     [&p](const Predicate& e) { return e.dim == p.dim; });
    if (it == predicates.end() || it->depth != p.depth ||
        !SameValues(it->values, p.values)) {
      return false;
    }
  }
  return true;
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  MDW_CHECK(capacity_ >= 1, "plan cache capacity must be >= 1");
}

const PlanCache::Entry* PlanCache::FindLocked(const StarQuery& query,
                                              std::uint64_t hash) const {
  const auto [begin, end] = by_hash_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second->Matches(query)) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return &*it->second;
    }
  }
  return nullptr;
}

std::shared_ptr<const QueryPlan> PlanCache::GetOrPlan(
    const StarQuery& query, const QueryPlanner& planner) {
  const std::uint64_t hash = StructuralQueryHash(query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Entry* entry = FindLocked(query, hash)) {
      ++hits_;
      return entry->plan;
    }
    ++misses_;
  }

  // Derive outside the lock: planning is the expensive part, and a plan
  // derived twice under a rare race is correct either way.
  Entry entry;
  entry.hash = hash;
  entry.predicates = CanonicalPredicates(query);
  entry.items = query.aggregates().items;
  entry.group_by = query.group_by();
  entry.plan = std::make_shared<const QueryPlan>(planner.Plan(query));

  std::lock_guard<std::mutex> lock(mu_);
  if (const Entry* resident = FindLocked(query, hash)) {
    // Lost the race to another thread; keep the resident entry.
    return resident->plan;
  }
  lru_.push_front(std::move(entry));
  by_hash_.emplace(hash, lru_.begin());
  if (lru_.size() > capacity_) {
    const auto victim = std::prev(lru_.end());
    const auto [begin, end] = by_hash_.equal_range(victim->hash);
    for (auto it = begin; it != end; ++it) {
      if (it->second == victim) {
        by_hash_.erase(it);
        break;
      }
    }
    lru_.pop_back();
    ++evictions_;
  }
  return lru_.front().plan;
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(
    const StarQuery& query) const {
  const std::uint64_t hash = StructuralQueryHash(query);
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindLocked(query, hash);
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return entry->plan;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_hash_.clear();
}

}  // namespace mdw
