#ifndef UGUIDE_COMMON_BITMAP_H_
#define UGUIDE_COMMON_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace uguide {

/// \brief A fixed-size dense bit set over the ids [0, size).
///
/// Bit i lives in word i / 64 at position i % 64. Bits at or past the size
/// are always zero, so ForEachSetBit never yields a phantom id. The one
/// bitmap mechanism of the hot core: a run's ActiveSet flags over the
/// violation graph and the cell sets indexed `row * num_attributes + col`
/// (CellBitmap, DESIGN.md §14) are both built on it.
class Bitmap {
 public:
  Bitmap() = default;

  /// `size` bits, all set when `value` is true, else all clear.
  explicit Bitmap(size_t size, bool value = false)
      : words_((size + 63) / 64, value ? ~uint64_t{0} : 0) {
    if (value && size % 64 != 0) {
      words_.back() = (uint64_t{1} << (size % 64)) - 1;
    }
  }

  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1u; }
  void Clear(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  /// Sets bit i; returns true iff it was clear.
  bool TestAndSet(size_t i) {
    uint64_t& word = words_[i >> 6];
    const uint64_t bit = uint64_t{1} << (i & 63);
    const bool was_clear = (word & bit) == 0;
    word |= bit;
    return was_clear;
  }

  /// Calls `fn(i)` for every set bit, ascending. Branch-free word scan:
  /// clear regions are skipped 64 ids at a time.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        fn(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
      }
    }
  }

  /// Payload bytes (the words at their logical size).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace uguide

#endif  // UGUIDE_COMMON_BITMAP_H_
