#ifndef MDW_SCHEMA_HIERARCHY_H_
#define MDW_SCHEMA_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mdw {

/// Index of a hierarchy level. Depth 0 is the *root* (coarsest) level, e.g.
/// DIVISION or YEAR; the largest depth is the *leaf* level, e.g. CODE or
/// MONTH. The paper's "higher level" (hier(q) > hier(f)) corresponds to a
/// *smaller* depth here.
using Depth = int;

/// A fact row's reference to one dimension leaf, as the clustered store
/// holds it: two bytes per row instead of eight. A schema whose leaf
/// cardinality exceeds kMaxLeafCardinality cannot be materialised (the
/// MiniWarehouse constructor refuses it); the full-scale configurations
/// are only ever simulated.
using LeafKey = std::uint16_t;
inline constexpr std::int64_t kMaxLeafCardinality = std::int64_t{1} << 16;

/// One level of a dimension hierarchy.
struct HierarchyLevel {
  std::string name;           ///< e.g. "group"
  std::int64_t cardinality;   ///< total number of elements at this level
};

/// A balanced, aligned dimension hierarchy as assumed by APB-1 and the
/// paper: every element of level d has the same number of children
/// (cardinality(d+1) / cardinality(d)), and leaf value `v` belongs to
/// ancestor `v / (leaf_card / card(d))` at depth d. The constructor checks
/// the required divisibility.
///
/// The hierarchy also defines the *hierarchical encoding* of the encoded
/// bitmap join index (paper Table 1): each level contributes
/// ceil(log2(fanout)) bits, concatenated root-first, so that all leaves
/// below one element at depth d share the same prefix of
/// `PrefixBits(d)` bits.
class Hierarchy {
 public:
  /// `levels` are given root-first (coarsest level at index 0).
  explicit Hierarchy(std::vector<HierarchyLevel> levels);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  Depth leaf_depth() const { return num_levels() - 1; }
  const HierarchyLevel& level(Depth d) const;

  /// Cardinality of the level at depth `d`.
  std::int64_t Cardinality(Depth d) const;
  /// Cardinality of the leaf level.
  std::int64_t LeafCardinality() const;

  /// Number of children of one depth-`d` element at depth d+1 ... for d==-1
  /// ("virtual root") this is the cardinality of depth 0.
  std::int64_t Fanout(Depth d) const;

  /// Ancestor of leaf value `leaf` at depth `d` (identity for the leaf
  /// depth). Values are dense integers in [0, Cardinality(d)).
  std::int64_t AncestorOfLeaf(std::int64_t leaf, Depth d) const;

  /// Ancestor at depth `to` of value `value` at depth `from` (to <= from).
  std::int64_t Ancestor(std::int64_t value, Depth from, Depth to) const;

  /// Range of leaf values [first, last] covered by `value` at depth `d`.
  std::pair<std::int64_t, std::int64_t> LeafRange(std::int64_t value,
                                                  Depth d) const;

  /// Number of leaf values below one element at depth `d`.
  std::int64_t LeavesPer(Depth d) const;

  /// Number of depth-`to` descendants of one depth-`from` element
  /// (from <= to).
  std::int64_t DescendantsPer(Depth from, Depth to) const;

  /// ---- Hierarchical encoding (paper Table 1) ----

  /// Bits contributed by the level at depth `d`: ceil(log2(Fanout(d-1))).
  int BitsAt(Depth d) const;
  /// Total bits of the full leaf encoding (e.g. 15 for APB-1 PRODUCT).
  int TotalBits() const;
  /// Bits of the prefix identifying an element at depth `d` (e.g. 10 bits
  /// identify a PRODUCT GROUP).
  int PrefixBits(Depth d) const;

  /// Encodes leaf value `leaf` into its hierarchical bit pattern: the
  /// root-level child index in the most significant field, the leaf-level
  /// index within its parent in the least significant field.
  std::uint64_t EncodeLeaf(std::int64_t leaf) const;
  /// Inverse of EncodeLeaf for patterns produced by it.
  std::int64_t DecodeLeaf(std::uint64_t pattern) const;

  /// Depth of the level named `name`, or -1 if absent.
  Depth DepthOf(std::string_view name) const;

 private:
  std::vector<HierarchyLevel> levels_;
  std::vector<int> bits_;  ///< bits per level, root-first
};

}  // namespace mdw

#endif  // MDW_SCHEMA_HIERARCHY_H_
