#ifndef MDW_FRAGMENT_QUERY_PLANNER_H_
#define MDW_FRAGMENT_QUERY_PLANNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "fragment/fragmentation.h"
#include "fragment/star_query.h"

namespace mdw {

/// The paper's four basic query types with respect to a fragmentation F
/// (Sec. 4.2), plus the unsupported case.
enum class QueryClass {
  kQ1,          ///< only fragmentation attributes (at their exact level)
  kQ2,          ///< lower-level attributes of fragmentation dimensions
  kQ3,          ///< higher-level attributes of fragmentation dimensions
  kQ4,          ///< mixed: lower *and* higher level on >= 2 frag dimensions
  kUnsupported  ///< no fragmentation dimension referenced at all
};

/// The paper's I/O overhead classes (Sec. 4.5).
enum class IoClass {
  kIoc1Opt,      ///< clustered hits, no bitmap access, single fragment
  kIoc1,         ///< clustered hits, no bitmap access
  kIoc2,         ///< spread hits, bitmap I/O required
  kIoc2NoSupp    ///< all fragments and all referenced bitmaps processed
};

const char* ToString(QueryClass c);
const char* ToString(IoClass c);

/// How one query predicate is evaluated under a fragmentation
/// (Sec. 4.3, step 2).
struct PredicateAccess {
  DimId dim = -1;
  Depth depth = -1;
  /// True iff a bitmap must be read for this predicate: the dimension is
  /// not in F, or it is in F but the predicate is on a *lower* (finer)
  /// level than the fragmentation attribute.
  bool needs_bitmap = false;
  /// Bitmaps read per fragment *per predicate value*: the encoded prefix
  /// (or the suffix below the fragmentation level), or 1 for simple
  /// indices.
  int bitmaps_read = 0;
};

/// A run of consecutive fragment ids [first, first + count) of a plan's
/// fragment set, all with the same coverage flag. `group` is the GROUP BY
/// key every fragment of the run falls in for an aligned grouped plan
/// (QueryPlan::AlignedGrouping()), else -1.
struct FragmentRun {
  FragId first = 0;
  std::int64_t count = 0;
  bool covered = false;
  std::int64_t group = -1;
};

/// The fragments a query must process, represented as one value-slice per
/// fragmentation attribute (the cross product of the slices), plus the
/// access classification. Fragment sets are enumerated lazily because the
/// cross product can be large.
///
/// Coverage classification: a selected fragment is *fully covered* when
/// every row it can contain satisfies all the query's predicates — a fact
/// decidable from the fragmentation attributes and hierarchy ancestors
/// alone, with no data access. Coverage factorises over the slices
/// (`covered(i)[j]` marks the j-th slice value of attribute i), so a
/// fragment is covered iff all its coordinates are and no predicate falls
/// outside the fragmentation dimensions (`coverable()`). Fully-covered
/// fragments can be answered from precomputed measure summaries; the rest
/// are *residual* and need a row scan.
class QueryPlan {
 public:
  /// The plan shares ownership of the fragmentation, so it stays valid
  /// even if the planner (or the façade that produced it) is destroyed.
  /// `covered` carries the per-slice coverage flags (same shape as
  /// `slices`); an empty `covered` marks every fragment residual, the
  /// conservative default for hand-built plans.
  QueryPlan(std::shared_ptr<const Fragmentation> fragmentation,
            std::vector<std::vector<std::int64_t>> slices,
            QueryClass query_class, IoClass io_class,
            std::vector<PredicateAccess> accesses, double selectivity,
            std::vector<std::vector<bool>> covered = {},
            bool coverable = false, std::optional<GroupBy> group_by = {});

  /// Compatibility: borrows a caller-owned fragmentation (no ownership);
  /// the caller must keep it alive for the plan's lifetime.
  QueryPlan(const Fragmentation* fragmentation,
            std::vector<std::vector<std::int64_t>> slices,
            QueryClass query_class, IoClass io_class,
            std::vector<PredicateAccess> accesses, double selectivity,
            std::vector<std::vector<bool>> covered = {},
            bool coverable = false, std::optional<GroupBy> group_by = {});

  const Fragmentation& fragmentation() const { return *fragmentation_; }
  QueryClass query_class() const { return query_class_; }
  IoClass io_class() const { return io_class_; }
  const std::vector<PredicateAccess>& accesses() const { return accesses_; }

  /// Value slice of the i-th fragmentation attribute.
  const std::vector<std::int64_t>& slice(int i) const;

  /// Number of fragments to be processed (product of slice sizes).
  std::int64_t FragmentCount() const;

  /// True iff any predicate needs bitmap access.
  bool NeedsBitmaps() const;
  /// Total bitmaps read per fragment (sum over predicates and values).
  int BitmapsPerFragment() const;

  /// Overall query selectivity on the fact table.
  double selectivity() const { return selectivity_; }
  /// Expected hit rows over the whole query.
  double ExpectedHits() const;
  /// Expected hit rows in one processed fragment.
  double HitsPerFragment() const;
  /// Fraction of a processed fragment's rows that are hits.
  double FragmentSelectivity() const;

  /// ---- Coverage classification ----

  /// False when some predicate lies outside the fragmentation dimensions,
  /// so every selected fragment needs a row scan regardless of its
  /// coordinates.
  bool coverable() const { return coverable_; }
  /// Coverage flags of the i-th slice, parallel to slice(i):
  /// covered(i)[j] iff the predicate on attribute i (if any) is satisfied
  /// by every row whose attribute-i coordinate is slice(i)[j].
  const std::vector<bool>& covered(int i) const;
  /// Number of fully-covered fragments in the selected set (product of
  /// per-attribute covered counts; 0 when !coverable()).
  std::int64_t CoveredFragmentCount() const;

  /// ---- Grouping classification ----

  bool grouped() const { return group_by_.has_value(); }
  const std::optional<GroupBy>& group_by() const { return group_by_; }
  /// Index of the fragmentation attribute the grouping *aligns* with
  /// (same dimension, group depth at or above the fragmentation depth),
  /// or -1. Aligned groups partition the fragment set, so covered
  /// fragments feed their prefix-sum partials straight into their group;
  /// non-aligned groups force the residual scan path with per-row keys.
  int group_attr() const { return group_attr_; }
  bool AlignedGrouping() const { return group_attr_ >= 0; }
  /// Cardinality of the GROUP BY attribute (0 when ungrouped) — the dense
  /// key domain of execution's per-chunk group accumulators.
  std::int64_t group_card() const { return group_card_; }
  /// Leaves per GROUP BY value: a fact row's key is leaf / leaves_per.
  std::int64_t group_leaves_per() const { return group_leaves_per_; }
  /// Calls fn(const FragmentRun&) for each maximal run of consecutive
  /// fragment ids the plan selects whose fragments share one coverage
  /// flag (and, for aligned grouped plans, one group key), in ascending
  /// allocation order. The walk is arithmetic over the sorted slices:
  /// adjacent values of the last slice form one run, and runs that abut
  /// across the other attributes join, so a fully-selected fragment
  /// range is one call. Allocates nothing.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const;

  /// Enumerates the fragment ids to process, in allocation order
  /// (ascending id).
  void ForEachFragment(const std::function<void(FragId)>& fn) const;

  /// Like above, additionally reporting whether each fragment is fully
  /// covered (answerable without touching its rows).
  void ForEachFragment(
      const std::function<void(FragId, bool covered)>& fn) const;

  /// Materialises the fragment ids; aborts if more than `cap` fragments
  /// (guard against accidentally exploding cross products).
  std::vector<FragId> MaterializeFragments(
      std::int64_t cap = 1'000'000) const;

 private:
  std::shared_ptr<const Fragmentation> fragmentation_;
  std::vector<std::vector<std::int64_t>> slices_;
  QueryClass query_class_;
  IoClass io_class_;
  std::vector<PredicateAccess> accesses_;
  double selectivity_;
  /// Parallel to slices_; empty-constructed plans normalise to all-false.
  std::vector<std::vector<bool>> covered_;
  bool coverable_ = false;
  std::optional<GroupBy> group_by_;
  int group_attr_ = -1;
  std::int64_t group_card_ = 0;
  std::int64_t group_leaves_per_ = 1;
  /// Fragmentation-depth values per group value on the aligned
  /// attribute: a fragment's group key is its coordinate there / this.
  std::int64_t group_desc_per_ = 1;

  /// ---- Run walk (ForEachRun) ----

  /// Each value of a leading slice (every attribute but the last) as a
  /// walk step: its fragment-id offset (value times the product of the
  /// cardinalities after the attribute), its coverage flag, and its group
  /// key when the attribute is the aligned one (-1 otherwise).
  struct SliceStep {
    std::int64_t offset = 0;
    bool covered = false;
    std::int64_t group = -1;
  };
  std::vector<std::vector<SliceStep>> lead_steps_;
  /// The last slice cut into runs of consecutive values with one
  /// coverage flag (and one group key when the last attribute is the
  /// aligned one; -1 otherwise).
  struct SliceRun {
    std::int64_t first = 0;
    std::int64_t count = 0;
    bool covered = false;
    std::int64_t group = -1;
  };
  std::vector<SliceRun> last_runs_;
  /// True iff every slice value is a valid coordinate; the walk aborts
  /// otherwise (an out-of-range value would alias another fragment).
  bool in_range_ = true;

  template <typename Emit>
  void WalkRuns(std::size_t attr, FragId base, bool covered,
                std::int64_t group, Emit& emit) const;
};

template <typename Emit>
void QueryPlan::WalkRuns(std::size_t attr, FragId base, bool covered,
                         std::int64_t group, Emit& emit) const {
  if (attr == lead_steps_.size()) {
    for (const SliceRun& r : last_runs_) {
      emit(FragmentRun{base + r.first, r.count, covered && r.covered,
                       group >= 0 ? group : r.group});
    }
    return;
  }
  for (const SliceStep& step : lead_steps_[attr]) {
    WalkRuns(attr + 1, base + step.offset, covered && step.covered,
             step.group >= 0 ? step.group : group, emit);
  }
}

template <typename Fn>
void QueryPlan::ForEachRun(Fn&& fn) const {
  MDW_CHECK(in_range_, "coordinate out of range");
  if (slices_.empty()) {
    fn(FragmentRun{0, 1, coverable_, -1});
    return;
  }
  // Runs of consecutive slice values arrive in ascending id order; one
  // pending run absorbs each run that continues it.
  FragmentRun pending;
  const auto emit = [&](const FragmentRun& run) {
    if (pending.count > 0 && pending.first + pending.count == run.first &&
        pending.covered == run.covered && pending.group == run.group) {
      pending.count += run.count;
      return;
    }
    if (pending.count > 0) fn(pending);
    pending = run;
  };
  WalkRuns(0, 0, coverable_, -1, emit);
  if (pending.count > 0) fn(pending);
}

/// Derives QueryPlans from StarQueries for a fixed fragmentation,
/// implementing Sec. 4.2 (query classes), Sec. 4.3 step 1-2 (fragment set
/// and bitmap requirements) and Sec. 4.5 (I/O classes).
class QueryPlanner {
 public:
  /// The planner shares ownership of schema and fragmentation; plans it
  /// produces keep the fragmentation alive on their own.
  QueryPlanner(std::shared_ptr<const StarSchema> schema,
               std::shared_ptr<const Fragmentation> fragmentation);

  /// Compatibility: borrows caller-owned schema/fragmentation.
  QueryPlanner(const StarSchema* schema, const Fragmentation* fragmentation);

  QueryPlan Plan(const StarQuery& query) const;

  /// Process-wide number of Plan() invocations across all planners. This
  /// is the observability hook behind the plan-first pipeline's guarantee
  /// that a batch of N queries costs exactly N derivations end to end
  /// (see docs/ARCHITECTURE.md); tests assert on deltas of this counter.
  static std::uint64_t LifetimePlanCount();

 private:
  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const Fragmentation> fragmentation_;
};

}  // namespace mdw

#endif  // MDW_FRAGMENT_QUERY_PLANNER_H_
