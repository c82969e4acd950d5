#include "bitmap/simple_bitmap_index.h"

#include "common/check.h"

namespace mdw {

SimpleBitmapIndex::SimpleBitmapIndex(
    const Hierarchy& hierarchy, std::span<const LeafKey> fk_column)
    : hierarchy_(hierarchy),
      row_count_(static_cast<std::int64_t>(fk_column.size())),
      bitmap_count_(0) {
  bitmaps_.resize(static_cast<std::size_t>(hierarchy.num_levels()));
  for (Depth d = 0; d < hierarchy.num_levels(); ++d) {
    auto& level_maps = bitmaps_[static_cast<std::size_t>(d)];
    level_maps.reserve(static_cast<std::size_t>(hierarchy.Cardinality(d)));
    for (std::int64_t v = 0; v < hierarchy.Cardinality(d); ++v) {
      level_maps.emplace_back(row_count_);
    }
    bitmap_count_ += static_cast<int>(hierarchy.Cardinality(d));
  }
  for (std::int64_t row = 0; row < row_count_; ++row) {
    const std::int64_t leaf = fk_column[static_cast<std::size_t>(row)];
    for (Depth d = 0; d < hierarchy.num_levels(); ++d) {
      const std::int64_t value = hierarchy.AncestorOfLeaf(leaf, d);
      bitmaps_[static_cast<std::size_t>(d)][static_cast<std::size_t>(value)]
          .Set(row);
    }
  }
}

const BitVector& SimpleBitmapIndex::Bitmap(Depth depth,
                                           std::int64_t value) const {
  MDW_CHECK(depth >= 0 && depth < hierarchy_.num_levels(),
            "depth out of range");
  MDW_CHECK(value >= 0 && value < hierarchy_.Cardinality(depth),
            "value out of range");
  return bitmaps_[static_cast<std::size_t>(depth)]
                 [static_cast<std::size_t>(value)];
}

BitVector SimpleBitmapIndex::Select(Depth depth, std::int64_t value) const {
  return Bitmap(depth, value);
}

BitVector SimpleBitmapIndex::SelectSlice(Depth depth, std::int64_t value,
                                         std::int64_t begin,
                                         std::int64_t end) const {
  return Bitmap(depth, value).Slice(begin, end);
}

}  // namespace mdw
