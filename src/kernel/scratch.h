// DenseCounter: a dense zero-initialized counter array with O(touched)
// reset, the scratch pattern shared by every kernel driver.
//
// The pairwise scans count "hits per partner" for thousands of partners,
// then need the buffer back at zero for the next probe. A hash map pays
// hashing + allocation per hit; this pays one array bump, remembers which
// slots it dirtied, and resets only those — so a scan over k hits costs
// O(k) regardless of the array size. Allocate one per worker thread (the
// drivers do this per chunk) and reuse across probes.
//
// SubtreeCounter builds on it for trees: it counts, per node, how many
// distinct items of a stream lie in the node's subtree, by walking each
// item's placements up to the root.
//
// Header-only and dependency-free so low layers (core/scoring) can use it
// without pulling in the rest of the kernel.

#ifndef OCT_KERNEL_SCRATCH_H_
#define OCT_KERNEL_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace oct {
namespace kernel {

class DenseCounter {
 public:
  explicit DenseCounter(size_t num_slots) : counts_(num_slots, 0) {}

  size_t num_slots() const { return counts_.size(); }

  /// Bumps slot `key`; first touch records it for Reset().
  void Increment(uint32_t key) {
    if (counts_[key]++ == 0) touched_.push_back(key);
  }

  uint32_t count(uint32_t key) const { return counts_[key]; }

  /// Slots touched since the last Reset(), in first-touch order.
  const std::vector<uint32_t>& touched() const { return touched_; }

  /// Zeroes the touched slots only — O(touched).
  void Reset() {
    for (uint32_t key : touched_) counts_[key] = 0;
    touched_.clear();
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> touched_;
};

/// Per-node counts of the distinct items of a stream that lie in each
/// node's subtree (an item lies in a node's subtree when one of its
/// placements is the node or a descendant of it). Each AddItem walks from
/// the item's placements to the root, bumping every node on the way once.
/// An item placed on several branches stamps the nodes it bumps with its
/// serial, so it counts once at their common ancestors: a later
/// placement's walk stops at the first node an earlier one stamped, whose
/// ancestors are all stamped too. A walk costs O(nodes it bumps).
class SubtreeCounter {
 public:
  /// `parents[v]` is node v's parent; a walk ends after a node whose
  /// parent is not a node id (>= parents.size()), i.e. after the root.
  /// `parents` must outlive the counter.
  explicit SubtreeCounter(std::span<const uint32_t> parents)
      : parents_(parents),
        counts_(parents.size()),
        stamps_(parents.size(), 0) {}

  /// Counts one item whose most-specific nodes are `placements`.
  void AddItem(std::span<const uint32_t> placements) {
    const size_t num_nodes = parents_.size();
    if (++stamp_ == 0) {  // Serials wrapped: forget every stamp.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      stamp_ = 1;
    }
    for (uint32_t node : placements) {
      while (node < num_nodes && stamps_[node] != stamp_) {
        stamps_[node] = stamp_;
        counts_.Increment(node);
        node = parents_[node];
      }
    }
  }

  /// Items added since the last Reset() that lie in `node`'s subtree.
  uint32_t count(uint32_t node) const { return counts_.count(node); }

  /// Nodes with a nonzero count, in first-touch order.
  const std::vector<uint32_t>& touched() const { return counts_.touched(); }

  /// Zeroes the counts in O(touched); stamps stay valid across resets.
  void Reset() { counts_.Reset(); }

 private:
  std::span<const uint32_t> parents_;
  DenseCounter counts_;
  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 0;
};

}  // namespace kernel
}  // namespace oct

#endif  // OCT_KERNEL_SCRATCH_H_
