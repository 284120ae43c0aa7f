// ItemSetIndex: per-dataset inverted index over the input sets — built once
// per OctInput, then shared by conflict enumeration and the CCT embeddings.
//
// It maps every item to the ids of the sets containing it. Two sets can
// only conflict / attract / embed each other when they share at least one
// item, so any pairwise scan driven by the inverted lists (OverlapScratch,
// kernel/pairwise.h) touches only pairs with a non-empty intersection
// instead of all O(n^2) pairs, and counts each pair's overlap exactly on
// the way. The per-item strict flags (ItemBound == 1) let the same walk
// count the strict-only overlap the relaxed-bound conflict rules need.
//
// The index holds a pointer to the input; it must not outlive it, and the
// input must not change while indexed (OctInput is append-only and frozen
// by the time pipelines run, so in practice: build after preprocessing).

#ifndef OCT_KERNEL_ITEM_SET_INDEX_H_
#define OCT_KERNEL_ITEM_SET_INDEX_H_

#include <cstddef>
#include <vector>

#include "core/input.h"

namespace oct {
namespace kernel {

class ItemSetIndex {
 public:
  /// Empty index; only assignable. Use Build().
  ItemSetIndex() = default;

  /// Builds the inverted index and the strict flags for `input`.
  static ItemSetIndex Build(const OctInput& input);

  const OctInput& input() const { return *input_; }
  size_t num_sets() const { return input_->num_sets(); }

  /// item -> ids of the sets containing it (ascending).
  const std::vector<std::vector<SetId>>& inverted() const { return inverted_; }

  /// Per-item strict flags (ItemBound == 1), or nullptr when the input has
  /// no relaxed bounds — then every item is strict and callers can reuse
  /// the plain intersection count.
  const std::vector<char>* strict_items() const {
    return strict_item_.empty() ? nullptr : &strict_item_;
  }

 private:
  const OctInput* input_ = nullptr;
  std::vector<std::vector<SetId>> inverted_;
  /// Per-item ItemBound()==1 flags; empty when no relaxed bounds exist.
  std::vector<char> strict_item_;
};

}  // namespace kernel
}  // namespace oct

#endif  // OCT_KERNEL_ITEM_SET_INDEX_H_
