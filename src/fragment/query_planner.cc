#include "fragment/query_planner.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/borrowed.h"
#include "common/check.h"

namespace mdw {

namespace {
std::atomic<std::uint64_t> g_plan_count{0};
}  // namespace

std::uint64_t QueryPlanner::LifetimePlanCount() {
  return g_plan_count.load(std::memory_order_relaxed);
}

const char* ToString(QueryClass c) {
  switch (c) {
    case QueryClass::kQ1: return "Q1";
    case QueryClass::kQ2: return "Q2";
    case QueryClass::kQ3: return "Q3";
    case QueryClass::kQ4: return "Q4";
    case QueryClass::kUnsupported: return "unsupported";
  }
  return "?";
}

const char* ToString(IoClass c) {
  switch (c) {
    case IoClass::kIoc1Opt: return "IOC1-opt";
    case IoClass::kIoc1: return "IOC1";
    case IoClass::kIoc2: return "IOC2";
    case IoClass::kIoc2NoSupp: return "IOC2-nosupp";
  }
  return "?";
}

QueryPlan::QueryPlan(std::shared_ptr<const Fragmentation> fragmentation,
                     std::vector<std::vector<std::int64_t>> slices,
                     QueryClass query_class, IoClass io_class,
                     std::vector<PredicateAccess> accesses,
                     double selectivity,
                     std::vector<std::vector<bool>> covered, bool coverable,
                     std::optional<GroupBy> group_by)
    : fragmentation_(std::move(fragmentation)),
      slices_(std::move(slices)),
      query_class_(query_class),
      io_class_(io_class),
      accesses_(std::move(accesses)),
      selectivity_(selectivity),
      covered_(std::move(covered)),
      coverable_(coverable),
      group_by_(group_by) {
  MDW_CHECK(fragmentation_ != nullptr, "plan needs a fragmentation");
  MDW_CHECK(static_cast<int>(slices_.size()) == fragmentation_->num_attrs(),
            "one slice per fragmentation attribute");
  if (covered_.size() != slices_.size()) {
    // No coverage info supplied: every fragment is residual. (For a
    // zero-attribute fragmentation the empty vector IS the right shape,
    // so `coverable` passes through and a predicate-free query can still
    // summarize the single fragment.)
    MDW_CHECK(covered_.empty(),
              "coverage flags must parallel the slices or be absent");
    coverable_ = false;
    covered_.resize(slices_.size());
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      covered_[i].assign(slices_[i].size(), false);
    }
  }
  MDW_CHECK(covered_.size() == slices_.size(),
            "one coverage vector per fragmentation attribute");
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    MDW_CHECK(covered_[i].size() == slices_[i].size(),
              "coverage flags must parallel the slice values");
  }
  if (group_by_.has_value()) {
    const StarSchema& schema = fragmentation_->schema();
    MDW_CHECK(group_by_->dim >= 0 && group_by_->dim < schema.num_dimensions(),
              "GROUP BY dimension out of range");
    const auto& h = schema.dimension(group_by_->dim).hierarchy();
    MDW_CHECK(group_by_->depth >= 0 && group_by_->depth < h.num_levels(),
              "GROUP BY level out of range");
    group_card_ = h.Cardinality(group_by_->depth);
    group_leaves_per_ = h.LeavesPer(group_by_->depth);
    // Aligned iff the grouping dimension is a fragmentation attribute and
    // the GROUP BY level is at or above (coarser than) the fragmentation
    // level — then each fragment lies in exactly one group.
    for (int i = 0; i < fragmentation_->num_attrs(); ++i) {
      const FragAttr& attr = fragmentation_->attr(i);
      if (attr.dim == group_by_->dim && group_by_->depth <= attr.depth) {
        group_attr_ = i;
        group_desc_per_ = h.DescendantsPer(group_by_->depth, attr.depth);
        break;
      }
    }
  }

  // Run-walk tables: every leading slice value as a step (id offset,
  // coverage, group key), and the last slice cut wherever the value,
  // coverage or (last attribute aligned) group breaks.
  const int n = fragmentation_->num_attrs();
  for (int i = 0; i < n; ++i) {
    for (const std::int64_t v : slices_[static_cast<std::size_t>(i)]) {
      in_range_ = in_range_ && v >= 0 && v < fragmentation_->CardOf(i);
    }
  }
  std::int64_t stride = 1;
  lead_steps_.resize(static_cast<std::size_t>(std::max(n - 1, 0)));
  for (int i = n - 2; i >= 0; --i) {
    const auto u = static_cast<std::size_t>(i);
    stride *= fragmentation_->CardOf(i + 1);
    for (std::size_t j = 0; j < slices_[u].size(); ++j) {
      const std::int64_t v = slices_[u][j];
      lead_steps_[u].push_back(
          {v * stride, covered_[u][j], i == group_attr_ ? v / group_desc_per_
                                                        : -1});
    }
  }
  if (n > 0) {
    const auto last = static_cast<std::size_t>(n - 1);
    const bool group_last = group_attr_ == n - 1;
    for (std::size_t j = 0; j < slices_[last].size(); ++j) {
      const std::int64_t v = slices_[last][j];
      const bool flag = covered_[last][j];
      const std::int64_t group = group_last ? v / group_desc_per_ : -1;
      if (!last_runs_.empty()) {
        SliceRun& run = last_runs_.back();
        if (run.first + run.count == v && run.covered == flag &&
            run.group == group) {
          ++run.count;
          continue;
        }
      }
      last_runs_.push_back({v, 1, flag, group});
    }
  }
}

QueryPlan::QueryPlan(const Fragmentation* fragmentation,
                     std::vector<std::vector<std::int64_t>> slices,
                     QueryClass query_class, IoClass io_class,
                     std::vector<PredicateAccess> accesses,
                     double selectivity,
                     std::vector<std::vector<bool>> covered, bool coverable,
                     std::optional<GroupBy> group_by)
    : QueryPlan(Borrowed(fragmentation), std::move(slices), query_class,
                io_class, std::move(accesses), selectivity,
                std::move(covered), coverable, group_by) {}

const std::vector<std::int64_t>& QueryPlan::slice(int i) const {
  MDW_CHECK(i >= 0 && i < static_cast<int>(slices_.size()),
            "slice index out of range");
  return slices_[static_cast<std::size_t>(i)];
}

std::int64_t QueryPlan::FragmentCount() const {
  std::int64_t count = 1;
  for (const auto& s : slices_) {
    count *= static_cast<std::int64_t>(s.size());
  }
  return count;
}

bool QueryPlan::NeedsBitmaps() const {
  return std::any_of(accesses_.begin(), accesses_.end(),
                     [](const PredicateAccess& a) { return a.needs_bitmap; });
}

int QueryPlan::BitmapsPerFragment() const {
  int total = 0;
  for (const auto& a : accesses_) {
    if (a.needs_bitmap) total += a.bitmaps_read;
  }
  return total;
}

double QueryPlan::ExpectedHits() const {
  return selectivity_ *
         static_cast<double>(fragmentation_->schema().FactCount());
}

double QueryPlan::HitsPerFragment() const {
  return ExpectedHits() / static_cast<double>(FragmentCount());
}

double QueryPlan::FragmentSelectivity() const {
  return HitsPerFragment() / fragmentation_->TuplesPerFragment();
}

const std::vector<bool>& QueryPlan::covered(int i) const {
  MDW_CHECK(i >= 0 && i < static_cast<int>(covered_.size()),
            "coverage index out of range");
  return covered_[static_cast<std::size_t>(i)];
}

std::int64_t QueryPlan::CoveredFragmentCount() const {
  if (!coverable_) return 0;
  std::int64_t count = 1;
  for (const auto& flags : covered_) {
    count *= static_cast<std::int64_t>(
        std::count(flags.begin(), flags.end(), true));
  }
  return count;
}

void QueryPlan::ForEachFragment(
    const std::function<void(FragId)>& fn) const {
  ForEachFragment([&fn](FragId id, bool /*covered*/) { fn(id); });
}

void QueryPlan::ForEachFragment(
    const std::function<void(FragId, bool)>& fn) const {
  ForEachRun([&fn](const FragmentRun& run) {
    for (FragId id = run.first; id < run.first + run.count; ++id) {
      fn(id, run.covered);
    }
  });
}

std::vector<FragId> QueryPlan::MaterializeFragments(std::int64_t cap) const {
  MDW_CHECK(FragmentCount() <= cap,
            "fragment set larger than the materialisation cap");
  std::vector<FragId> ids;
  ids.reserve(static_cast<std::size_t>(FragmentCount()));
  ForEachFragment([&ids](FragId id) { ids.push_back(id); });
  return ids;
}

QueryPlanner::QueryPlanner(std::shared_ptr<const StarSchema> schema,
                           std::shared_ptr<const Fragmentation> fragmentation)
    : schema_(std::move(schema)), fragmentation_(std::move(fragmentation)) {
  MDW_CHECK(schema_ != nullptr && fragmentation_ != nullptr,
            "planner needs schema and fragmentation");
  MDW_CHECK(&fragmentation_->schema() == schema_.get(),
            "fragmentation must belong to the schema");
}

QueryPlanner::QueryPlanner(const StarSchema* schema,
                           const Fragmentation* fragmentation)
    : QueryPlanner(Borrowed(schema), Borrowed(fragmentation)) {}

QueryPlan QueryPlanner::Plan(const StarQuery& query) const {
  g_plan_count.fetch_add(1, std::memory_order_relaxed);
  const Fragmentation& frag = *fragmentation_;

  // Step 1 (Sec. 4.3): the fragment slice per fragmentation attribute,
  // with per-value coverage flags (is every row of the coordinate a hit
  // for this attribute's predicate?).
  std::vector<std::vector<std::int64_t>> slices(
      static_cast<std::size_t>(frag.num_attrs()));
  std::vector<std::vector<bool>> covered(
      static_cast<std::size_t>(frag.num_attrs()));
  bool any_frag_dim_referenced = false;
  bool any_lower = false;    // predicate below the fragmentation level (Q2)
  bool any_higher = false;   // predicate above the fragmentation level (Q3)
  bool any_equal = false;    // predicate exactly on a fragmentation attribute

  for (int i = 0; i < frag.num_attrs(); ++i) {
    const FragAttr& attr = frag.attr(i);
    const auto& h = schema_->dimension(attr.dim).hierarchy();
    auto& slice = slices[static_cast<std::size_t>(i)];
    auto& slice_covered = covered[static_cast<std::size_t>(i)];
    const Predicate* pred = query.PredicateOn(attr.dim);
    if (pred == nullptr) {
      // Unreferenced fragmentation dimension: all its values, trivially
      // covered (no predicate to satisfy).
      slice.resize(static_cast<std::size_t>(frag.CardOf(i)));
      for (std::int64_t v = 0; v < frag.CardOf(i); ++v) {
        slice[static_cast<std::size_t>(v)] = v;
      }
      slice_covered.assign(slice.size(), true);
      continue;
    }
    any_frag_dim_referenced = true;
    if (pred->depth == attr.depth) {
      any_equal = true;
      slice = pred->values;
    } else if (pred->depth < attr.depth) {
      // Coarser predicate (paper: "higher level", Q3): expand each value to
      // its descendants at the fragmentation level.
      any_higher = true;
      for (const auto v : pred->values) {
        const std::int64_t per = h.DescendantsPer(pred->depth, attr.depth);
        for (std::int64_t k = 0; k < per; ++k) {
          slice.push_back(v * per + k);
        }
      }
    } else {
      // Finer predicate (paper: "lower level", Q2): each value maps to its
      // single ancestor fragment slice.
      any_lower = true;
      for (const auto v : pred->values) {
        slice.push_back(h.Ancestor(v, pred->depth, attr.depth));
      }
    }
    // Sorted-unique in every branch: a duplicated IN-list value must not
    // enumerate (and aggregate) its fragment twice.
    std::sort(slice.begin(), slice.end());
    slice.erase(std::unique(slice.begin(), slice.end()), slice.end());
    if (pred->depth <= attr.depth) {
      // At or above the fragmentation level: membership in a selected
      // fragment implies the predicate, so every coordinate is covered.
      slice_covered.assign(slice.size(), true);
    } else {
      // Below the fragmentation level: a coordinate is covered only when
      // the IN-list contains ALL of its depth-pred descendants, i.e. the
      // predicate degenerates to fragment membership there.
      std::vector<std::int64_t> values = pred->values;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      const std::int64_t per = h.DescendantsPer(attr.depth, pred->depth);
      slice_covered.assign(slice.size(), false);
      std::size_t j = 0;  // lockstep: slice is the sorted unique ancestors
      for (std::size_t k = 0; k < values.size(); ++j) {
        const std::int64_t anc = h.Ancestor(values[k], pred->depth, attr.depth);
        std::int64_t run = 0;
        while (k < values.size() &&
               h.Ancestor(values[k], pred->depth, attr.depth) == anc) {
          ++k;
          ++run;
        }
        MDW_CHECK(slice[j] == anc, "coverage walk out of step with slice");
        slice_covered[j] = (run == per);
      }
    }
  }

  // A predicate outside the fragmentation dimensions filters inside every
  // fragment, so no fragment can be answered from membership alone.
  bool coverable = true;
  for (const auto& pred : query.predicates()) {
    if (frag.FragDepthOf(pred.dim) < 0) {
      coverable = false;
      break;
    }
  }

  // Step 2 (Sec. 4.3): bitmap requirements per predicate.
  std::vector<PredicateAccess> accesses;
  bool all_preds_on_frag_dims = true;
  bool all_preds_at_frag_depth = !query.predicates().empty();
  for (const auto& pred : query.predicates()) {
    PredicateAccess access;
    access.dim = pred.dim;
    access.depth = pred.depth;
    const Depth frag_depth = frag.FragDepthOf(pred.dim);
    const auto& dim = schema_->dimension(pred.dim);
    if (frag_depth < 0) {
      // Dimension not represented in F: full bitmap access.
      all_preds_on_frag_dims = false;
      all_preds_at_frag_depth = false;
      access.needs_bitmap = true;
      access.bitmaps_read =
          dim.BitmapsForSelection(pred.depth) *
          static_cast<int>(pred.values.size());
    } else if (pred.depth > frag_depth) {
      // Finer than the fragmentation level: bitmaps for the suffix bits
      // below the fragmentation level (encoded) or one bitmap (simple).
      all_preds_at_frag_depth = false;
      access.needs_bitmap = true;
      if (dim.index_kind() == IndexKind::kEncoded) {
        access.bitmaps_read = (dim.hierarchy().PrefixBits(pred.depth) -
                               dim.hierarchy().PrefixBits(frag_depth)) *
                              static_cast<int>(pred.values.size());
      } else {
        access.bitmaps_read = static_cast<int>(pred.values.size());
      }
    } else {
      // At or above the fragmentation level: every row of the selected
      // fragments matches; no bitmap needed (Q1/Q3).
      if (pred.depth != frag_depth) all_preds_at_frag_depth = false;
      access.needs_bitmap = false;
      access.bitmaps_read = 0;
    }
    accesses.push_back(access);
  }

  // Query class (Sec. 4.2).
  QueryClass query_class;
  if (!any_frag_dim_referenced) {
    query_class = QueryClass::kUnsupported;
  } else if (any_lower && any_higher) {
    query_class = QueryClass::kQ4;
  } else if (any_lower) {
    query_class = QueryClass::kQ2;
  } else if (any_higher) {
    query_class = QueryClass::kQ3;
  } else {
    query_class = QueryClass::kQ1;
  }
  (void)any_equal;

  // I/O class (Sec. 4.5).
  const bool needs_bitmaps = std::any_of(
      accesses.begin(), accesses.end(),
      [](const PredicateAccess& a) { return a.needs_bitmap; });
  IoClass io_class;
  if (!any_frag_dim_referenced && !query.predicates().empty()) {
    io_class = IoClass::kIoc2NoSupp;
  } else if (!needs_bitmaps && all_preds_on_frag_dims) {
    // IOC1: Dim(Q) subset of Dim(F) and every predicate at or above its
    // fragmentation level. IOC1-opt additionally requires every
    // fragmentation dimension referenced exactly at its level.
    const bool every_frag_dim_referenced = [&] {
      for (int i = 0; i < frag.num_attrs(); ++i) {
        if (query.PredicateOn(frag.attr(i).dim) == nullptr) return false;
      }
      return frag.num_attrs() > 0;
    }();
    io_class = (every_frag_dim_referenced && all_preds_at_frag_depth)
                   ? IoClass::kIoc1Opt
                   : IoClass::kIoc1;
  } else {
    io_class = IoClass::kIoc2;
  }

  return QueryPlan(fragmentation_, std::move(slices), query_class, io_class,
                   std::move(accesses), query.Selectivity(*schema_),
                   std::move(covered), coverable, query.group_by());
}

}  // namespace mdw
