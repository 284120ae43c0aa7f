// BitSet: a dense fixed-universe bitmap used as probe scratch.
//
// Items are the same dense 32-bit ids as ItemSet, packed 64 per word.
// Counting a sorted set against a bitmap costs O(|set|) — one word load and
// bit test per item — regardless of how many items the bitmap holds, so a
// bitmap pays off when one side is probed many times: MergeSimilarSets
// keeps one scratch bitmap of the set it is growing, its only user.
//
// A BitSet is a scratch/acceleration structure, not a model type: the OCT
// model keeps ItemSet as the source of truth.

#ifndef OCT_KERNEL_BITSET_H_
#define OCT_KERNEL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/item_set.h"

namespace oct {
namespace kernel {

/// Fixed-universe bitmap over U = {0, ..., universe_size-1}.
class BitSet {
 public:
  BitSet() = default;

  /// All-zero bitmap over a universe of `universe_size` items.
  explicit BitSet(size_t universe_size);

  /// Sets the bits of `set` without clearing others (incremental unions).
  /// Items must be < universe.
  void SetAll(const ItemSet& set);

  /// Clears exactly the bits of `set` — an O(|set|) reset that restores the
  /// all-zero invariant of a shared scratch bitmap.
  void ClearAll(const ItemSet& set);

  /// |this ∩ other| by probing each item of the sorted set — O(|other|).
  /// Items of `other` must be < universe.
  size_t IntersectionCount(const ItemSet& other) const;

 private:
  size_t universe_size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace kernel
}  // namespace oct

#endif  // OCT_KERNEL_BITSET_H_
