#ifndef MDW_BITMAP_INDEX_SET_H_
#define MDW_BITMAP_INDEX_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bitmap/encoded_bitmap_index.h"
#include "bitmap/simple_bitmap_index.h"
#include "schema/star_schema.h"

namespace mdw {

/// The fact table's foreign-key columns: `columns[dim][row]` is the leaf
/// value of dimension `dim` referenced by fact row `row`, stored at its
/// natural two-byte width. This is the materialised representation used by
/// the functional (in-memory) path on scaled-down schemas.
struct FactColumns {
  std::vector<std::vector<LeafKey>> columns;

  std::int64_t row_count() const {
    return columns.empty() ? 0
                           : static_cast<std::int64_t>(columns[0].size());
  }
};

/// All bitmap join indices of a star schema: one simple or encoded index
/// per dimension, following the dimension's IndexKind. This is the
/// functional counterpart of the index configuration the paper assumes
/// (encoded on PRODUCT/CUSTOMER, simple on TIME/CHANNEL; 76 bitmaps total
/// at APB-1 scale).
class IndexSet {
 public:
  IndexSet(const StarSchema& schema, const FactColumns& facts);

  /// Rows matching value@depth on dimension `dim` (reads the index).
  BitVector Select(DimId dim, Depth depth, std::int64_t value) const;

  /// Range-restricted Select: the selection's bits over rows [begin, end)
  /// only, as a vector of size end-begin (bit i = row begin+i). This is
  /// how fragment-confined execution evaluates predicates per fragment
  /// row range instead of over full-width bitmaps.
  BitVector SelectSlice(DimId dim, Depth depth, std::int64_t value,
                        std::int64_t begin, std::int64_t end) const;

  /// Rows [begin, end) matching value@depth when processing is already
  /// confined to rows sharing the dimension's prefix down to
  /// `fragment_depth` (only meaningful for encoded indices; for simple
  /// indices this is a plain SelectSlice). Same row-range semantics.
  BitVector SelectWithinFragmentSlice(DimId dim, Depth depth,
                                      std::int64_t value, Depth fragment_depth,
                                      std::int64_t begin,
                                      std::int64_t end) const;

  /// Total bitmaps across all indices (76 for paper APB-1).
  int TotalBitmapCount() const;

  const SimpleBitmapIndex* simple_index(DimId dim) const;
  const EncodedBitmapIndex* encoded_index(DimId dim) const;

 private:
  const StarSchema& schema_;
  std::vector<std::unique_ptr<SimpleBitmapIndex>> simple_;
  std::vector<std::unique_ptr<EncodedBitmapIndex>> encoded_;
};

}  // namespace mdw

#endif  // MDW_BITMAP_INDEX_SET_H_
