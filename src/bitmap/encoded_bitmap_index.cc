#include "bitmap/encoded_bitmap_index.h"

#include "common/check.h"

namespace mdw {

EncodedBitmapIndex::EncodedBitmapIndex(
    const Hierarchy& hierarchy, std::span<const LeafKey> fk_column)
    : hierarchy_(hierarchy),
      row_count_(static_cast<std::int64_t>(fk_column.size())),
      bitmap_count_(hierarchy.TotalBits()) {
  slices_.reserve(static_cast<std::size_t>(bitmap_count_));
  for (int b = 0; b < bitmap_count_; ++b) slices_.emplace_back(row_count_);
  for (std::int64_t row = 0; row < row_count_; ++row) {
    const std::uint64_t pattern =
        hierarchy.EncodeLeaf(fk_column[static_cast<std::size_t>(row)]);
    for (int b = 0; b < bitmap_count_; ++b) {
      // Bit position b counts from the most significant end.
      if ((pattern >> (bitmap_count_ - 1 - b)) & 1) {
        slices_[static_cast<std::size_t>(b)].Set(row);
      }
    }
  }
}

const BitVector& EncodedBitmapIndex::Bitmap(int bit) const {
  MDW_CHECK(bit >= 0 && bit < bitmap_count_, "bit position out of range");
  return slices_[static_cast<std::size_t>(bit)];
}

std::uint64_t EncodedBitmapIndex::PrefixPattern(Depth depth,
                                                std::int64_t value) const {
  MDW_CHECK(value >= 0 && value < hierarchy_.Cardinality(depth),
            "value out of range");
  // The prefix of an element at depth d equals the leaf encoding of any
  // descendant leaf, truncated to PrefixBits(d). Use the first leaf.
  const std::int64_t first_leaf = hierarchy_.LeafRange(value, depth).first;
  const int drop = hierarchy_.TotalBits() - hierarchy_.PrefixBits(depth);
  return hierarchy_.EncodeLeaf(first_leaf) >> drop;
}

BitVector EncodedBitmapIndex::Select(Depth depth, std::int64_t value) const {
  return SelectWithinPrefix(depth, value, /*skip_bits=*/0);
}

BitVector EncodedBitmapIndex::SelectWithinPrefix(Depth depth,
                                                 std::int64_t value,
                                                 int skip_bits) const {
  const int prefix_bits = hierarchy_.PrefixBits(depth);
  MDW_CHECK(skip_bits >= 0 && skip_bits <= prefix_bits,
            "skip_bits must not exceed the selection's prefix");
  const std::uint64_t pattern = PrefixPattern(depth, value);
  BitVector result(row_count_);
  result.SetAll();
  for (int b = skip_bits; b < prefix_bits; ++b) {
    const bool bit_set = (pattern >> (prefix_bits - 1 - b)) & 1;
    if (bit_set) {
      result &= slices_[static_cast<std::size_t>(b)];
    } else {
      result.AndNot(slices_[static_cast<std::size_t>(b)]);
    }
  }
  return result;
}

BitVector EncodedBitmapIndex::SelectWithinPrefixSlice(Depth depth,
                                                      std::int64_t value,
                                                      int skip_bits,
                                                      std::int64_t begin,
                                                      std::int64_t end) const {
  const int prefix_bits = hierarchy_.PrefixBits(depth);
  MDW_CHECK(skip_bits >= 0 && skip_bits <= prefix_bits,
            "skip_bits must not exceed the selection's prefix");
  MDW_CHECK(begin >= 0 && begin <= end && end <= row_count_,
            "row range out of bounds");
  const std::uint64_t pattern = PrefixPattern(depth, value);
  BitVector result(end - begin);
  result.SetAll();
  for (int b = skip_bits; b < prefix_bits; ++b) {
    const bool bit_set = (pattern >> (prefix_bits - 1 - b)) & 1;
    const auto& slice = slices_[static_cast<std::size_t>(b)];
    if (bit_set) {
      result.AndSlice(slice, begin);
    } else {
      result.AndNotSlice(slice, begin);
    }
  }
  return result;
}

int EncodedBitmapIndex::BitmapsRead(Depth depth, int skip_bits) const {
  const int prefix_bits = hierarchy_.PrefixBits(depth);
  MDW_CHECK(skip_bits >= 0 && skip_bits <= prefix_bits,
            "skip_bits must not exceed the selection's prefix");
  return prefix_bits - skip_bits;
}

}  // namespace mdw
