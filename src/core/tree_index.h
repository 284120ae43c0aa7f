// TreeIndex: the per-tree arrays that scoring, serving, routing, validation
// and CTCR read, built once from a CategoryTree by one builder:
//
//   - the compact parent array kernel::SubtreeCounter walks;
//   - each node's depth (root = 0);
//   - item -> most-specific nodes as a CSR, filled in pre-order, so an
//     item's first placement is its shallowest-first, leftmost one;
//   - each node's full item-set size, every item counted once (Section
//     2.1: a category is a set), also an item that a relaxed bound puts on
//     several branches (Section 3.3, "Extensions").
//
// Node ids index every array, tombstones included (no parent, depth 0,
// size 0, never a placement). The index is a value: it does not track later
// edits of the tree.

#ifndef OCT_CORE_TREE_INDEX_H_
#define OCT_CORE_TREE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/category_tree.h"

namespace oct {

class TreeIndex {
 public:
  /// Indexes the alive nodes of `tree`, whose structure must be valid
  /// (CategoryTree::ValidateStructure).
  static TreeIndex Build(const CategoryTree& tree);

  /// Node slots, tombstones included (== tree.num_nodes()).
  size_t num_nodes() const { return parents_.size(); }

  /// NodeId -> parent (kInvalidNode at the root and at tombstones).
  const std::vector<NodeId>& parents() const { return parents_; }

  uint32_t depth(NodeId node) const { return depths_[node]; }

  /// |full item set| of `node`, each item counted once.
  uint32_t size(NodeId node) const { return sizes_[node]; }
  const std::vector<uint32_t>& sizes() const { return sizes_; }

  /// Most-specific nodes of `item` in pre-order; empty when the item is
  /// unplaced or not below item_limit(). Never allocates.
  std::span<const NodeId> PlacementsOf(ItemId item) const {
    if (static_cast<size_t>(item) >= item_limit()) return {};
    return {placements_.data() + offsets_[item],
            placements_.data() + offsets_[item + 1]};
  }

  /// One past the largest placed item (0 when nothing is placed).
  size_t item_limit() const { return offsets_.size() - 1; }

  /// Distinct items with at least one placement.
  size_t num_items_placed() const { return num_items_placed_; }

 private:
  std::vector<NodeId> parents_;
  std::vector<uint32_t> depths_;
  std::vector<uint32_t> sizes_;
  // Placements of item i: placements_[offsets_[i] .. offsets_[i + 1]).
  std::vector<uint32_t> offsets_ = {0};
  std::vector<NodeId> placements_;
  size_t num_items_placed_ = 0;
};

}  // namespace oct

#endif  // OCT_CORE_TREE_INDEX_H_
