#ifndef MDW_BITMAP_SIMPLE_BITMAP_INDEX_H_
#define MDW_BITMAP_SIMPLE_BITMAP_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitvector.h"
#include "schema/hierarchy.h"

namespace mdw {

/// A standard (simple) bitmap join index on one dimension of the fact
/// table: for every hierarchy level and every value of that level, one
/// bitmap marking the matching fact rows (paper Sec. 3.2). Used for the
/// low-cardinality dimensions TIME and CHANNEL (24+8+2 = 34 resp. 15
/// bitmaps in the paper's configuration).
class SimpleBitmapIndex {
 public:
  /// Builds the index from the fact table's foreign-key column for this
  /// dimension; `fk_column[r]` is the *leaf* value row r refers to.
  SimpleBitmapIndex(const Hierarchy& hierarchy,
                    std::span<const LeafKey> fk_column);

  /// The bitmap of value `value` at depth `depth`.
  const BitVector& Bitmap(Depth depth, std::int64_t value) const;

  /// Rows matching an exact-match predicate value@depth. For a simple
  /// index this is just a copy of the stored bitmap (one bitmap read).
  BitVector Select(Depth depth, std::int64_t value) const;

  /// Range-restricted Select: the stored bitmap's bits [begin, end) as a
  /// vector of size end-begin (bit i = row begin+i).
  BitVector SelectSlice(Depth depth, std::int64_t value, std::int64_t begin,
                        std::int64_t end) const;

  /// Total number of bitmaps materialised (sum of level cardinalities).
  int bitmap_count() const { return bitmap_count_; }

  std::int64_t row_count() const { return row_count_; }

 private:
  const Hierarchy& hierarchy_;
  std::int64_t row_count_;
  int bitmap_count_;
  /// bitmaps_[depth][value]
  std::vector<std::vector<BitVector>> bitmaps_;
};

}  // namespace mdw

#endif  // MDW_BITMAP_SIMPLE_BITMAP_INDEX_H_
