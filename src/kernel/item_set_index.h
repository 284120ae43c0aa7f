// The item -> sets map of an input: which input sets hold item x? CTCR
// asks it to find conflicts, place items and condense, and CCT to embed the
// sets. The build entry points (ctcr:: and cct::BuildCategoryTree) build
// one ItemSetIndex per input unless handed one; their phases only read it.
//
// ItemPostings is the map, a CSR with the one count / prefix-sum / fill
// builder, which data::MergeSimilarSets also runs on each pass. ItemSetIndex
// adds the input it indexes and the per-item strict flags (ItemBound == 1),
// so the pairwise scans (OverlapScratch, kernel/pairwise.h) touch only the
// pairs that share an item and count the strict-only overlap the
// relaxed-bound conflict rules need on the same walk.
//
// The index holds a pointer to the input; it must not outlive it, and the
// input must not change while indexed (OctInput is append-only and frozen
// by the time pipelines run, so in practice: build after preprocessing).

#ifndef OCT_KERNEL_ITEM_SET_INDEX_H_
#define OCT_KERNEL_ITEM_SET_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/input.h"

namespace oct {
namespace kernel {

/// item -> ids of the sets holding it, ascending: the sets of `item` are
/// sets_[offsets_[item] .. offsets_[item + 1]).
class ItemPostings {
 public:
  /// Rebuilds the map over `sets` (set ids are positions in the span; every
  /// item must be < `universe`), reusing this object's buffers.
  void Assign(std::span<const CandidateSet> sets, size_t universe);

  /// Ids of the sets holding `item` (< the universe), ascending.
  std::span<const SetId> SetsOf(ItemId item) const {
    return {sets_.data() + offsets_[item],
            sets_.data() + offsets_[size_t{item} + 1]};
  }

 private:
  std::vector<uint32_t> offsets_ = {0};
  std::vector<SetId> sets_;
};

class ItemSetIndex {
 public:
  /// Empty index; only assignable. Use Build().
  ItemSetIndex() = default;

  /// Builds the item -> sets map and the strict flags for `input`.
  static ItemSetIndex Build(const OctInput& input);

  const OctInput& input() const { return *input_; }
  size_t num_sets() const { return input_->num_sets(); }

  /// Ids of the input sets holding `item` (< universe_size()), ascending.
  std::span<const SetId> SetsOf(ItemId item) const {
    return postings_.SetsOf(item);
  }

  /// Per-item strict flags (ItemBound == 1), or nullptr when the input has
  /// no relaxed bounds — then every item is strict and callers can reuse
  /// the plain intersection count.
  const std::vector<char>* strict_items() const {
    return strict_item_.empty() ? nullptr : &strict_item_;
  }

 private:
  const OctInput* input_ = nullptr;
  ItemPostings postings_;
  /// Per-item ItemBound()==1 flags; empty when no relaxed bounds exist.
  std::vector<char> strict_item_;
};

}  // namespace kernel
}  // namespace oct

#endif  // OCT_KERNEL_ITEM_SET_INDEX_H_
