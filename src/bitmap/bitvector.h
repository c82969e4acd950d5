#ifndef MDW_BITMAP_BITVECTOR_H_
#define MDW_BITMAP_BITVECTOR_H_

#include <cstdint>
#include <vector>

namespace mdw {

/// A packed, fixed-length vector of bits with the Boolean operations the
/// star-query processor needs (AND, OR, NOT, AND-NOT), population count and
/// set-bit iteration. One BitVector is one bitmap (or one bitmap fragment)
/// of a bitmap join index: bit r corresponds to fact row r.
class BitVector {
 public:
  BitVector() = default;
  /// All-zero vector of `size_bits` bits.
  explicit BitVector(std::int64_t size_bits);

  std::int64_t size() const { return size_bits_; }
  /// Storage footprint in bytes (whole words).
  std::int64_t SizeBytes() const {
    return static_cast<std::int64_t>(words_.size()) * 8;
  }

  void Set(std::int64_t bit);
  void Clear(std::int64_t bit);
  bool Get(std::int64_t bit) const;

  /// Sets every bit (used to seed an AND-reduction).
  void SetAll();
  /// Clears every bit.
  void ClearAll();

  /// In-place Boolean operations; operands must have equal size.
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  /// this &= ~other
  BitVector& AndNot(const BitVector& other);
  /// Flips every bit (trailing bits beyond size stay zero).
  void FlipAll();

  /// ---- Range-restricted operations ----
  /// These let fragment-confined execution evaluate bitmap filters over
  /// one fragment's row range only, instead of over full-width vectors
  /// (O(range) rather than O(table)). `offset` addresses bits of `other`:
  /// bit i of *this is combined with bit offset+i of other.

  /// Copy of bits [begin, end) as a new vector of size end-begin.
  BitVector Slice(std::int64_t begin, std::int64_t end) const;
  /// this &= other[offset .. offset+size())
  BitVector& AndSlice(const BitVector& other, std::int64_t offset);
  /// this &= ~other[offset .. offset+size())
  BitVector& AndNotSlice(const BitVector& other, std::int64_t offset);

  /// Number of set bits.
  std::int64_t Count() const;
  /// True iff no bit is set.
  bool None() const;

  /// Index of the first set bit at or after `from`, or -1.
  std::int64_t NextSetBit(std::int64_t from) const;

  /// Invokes `fn(row)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int tz = __builtin_ctzll(word);
        fn(static_cast<std::int64_t>(w) * 64 + tz);
        word &= word - 1;
      }
    }
  }

  /// The packed bits, 64 per word, bit i at words()[i / 64] >> (i % 64).
  const std::uint64_t* words() const { return words_.data(); }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_bits_ == b.size_bits_ && a.words_ == b.words_;
  }

 private:
  void MaskTail();
  /// 64 bits of `words` starting at bit offset `bit` (reads at most two
  /// adjacent words; bits past `size_bits` read as zero).
  std::uint64_t WordAt(std::int64_t bit) const;

  std::int64_t size_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Binary Boolean helpers (by-value result).
BitVector operator&(BitVector a, const BitVector& b);
BitVector operator|(BitVector a, const BitVector& b);

}  // namespace mdw

#endif  // MDW_BITMAP_BITVECTOR_H_
