// A growable set of small non-negative ids, one bit each in 64-bit words.
// The coverage scheduler keeps one beside every set of pool views: bit n is
// set while view n holds at least one entry, so a pick can walk only the
// occupied views with next() (DESIGN.md §5l, "Coverage candidate set").
// Reading never allocates; set() grows the words on the first bit past the
// end, so a caller that sizes it up front never allocates again.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace libra::util {

class IdBitset {
 public:
  static constexpr size_t npos = std::numeric_limits<size_t>::max();

  IdBitset() = default;
  /// Room for ids [0, n), all clear.
  explicit IdBitset(size_t n) : words_((n + 63) / 64, 0) {}

  /// Whether `id` is in the set; false past the end.
  bool test(size_t id) const {
    const size_t w = id / 64;
    return w < words_.size() && ((words_[w] >> (id % 64)) & 1u) != 0;
  }

  /// Adds `id` (growing the words as needed) or removes it.
  void set(size_t id, bool value) {
    const size_t w = id / 64;
    const uint64_t bit = uint64_t{1} << (id % 64);
    if (value) {
      if (w >= words_.size()) words_.resize(w + 1, 0);
      words_[w] |= bit;
    } else if (w < words_.size()) {
      words_[w] &= ~bit;
    }
  }

  /// The smallest id >= `from` in the set, or npos.
  size_t next(size_t from) const {
    size_t w = from / 64;
    if (w >= words_.size()) return npos;
    uint64_t word = words_[w] & (~uint64_t{0} << (from % 64));
    for (;;) {
      if (word != 0)
        return w * 64 + static_cast<size_t>(std::countr_zero(word));
      if (++w == words_.size()) return npos;
      word = words_[w];
    }
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace libra::util
