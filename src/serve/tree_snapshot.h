// TreeSnapshot: an immutable, index-enriched view of a CategoryTree, built
// once at publish time so that serving lookups (item -> leaf path,
// label -> node, subtree sizes) are O(1)/O(depth) and touch no mutable
// state. Placements, depths and subtree sizes come from the tree's
// TreeIndex (core/tree_index.h), which the router scores against too.
// Production deployments regenerate trees every ~90 days (Section 5.1)
// while search and navigation traffic consults the current tree
// continuously; a snapshot is the unit that gets swapped in.
//
// A snapshot is safe to share across any number of reader threads without
// synchronization: every index is fully built in the constructor and never
// mutated afterwards.

#ifndef OCT_SERVE_TREE_SNAPSHOT_H_
#define OCT_SERVE_TREE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/category_tree.h"
#include "core/tree_index.h"

namespace oct {
namespace serve {

/// Version number of a published snapshot (1-based; 0 means "none").
using TreeVersion = uint64_t;

class TreeSnapshot {
 public:
  /// Builds all serving indexes from a tree. The tree is compacted (any
  /// tombstones dropped) so node ids are dense. `note` is free-form
  /// provenance ("initial", "rebuild on batch 3", "rollback of v2", ...).
  TreeSnapshot(CategoryTree tree, TreeVersion version, std::string note = "");

  TreeVersion version() const { return version_; }
  const std::string& note() const { return note_; }
  const CategoryTree& tree() const { return tree_; }

  /// Seconds spent building the indexes (observability: publish cost).
  double build_seconds() const { return build_seconds_; }

  /// Parents, depths, placements and sizes of the (compacted) tree.
  const TreeIndex& index() const { return index_; }

  /// The root's child labeled kMiscLabel (core/tree_ops.h), or
  /// kInvalidNode.
  NodeId misc() const { return misc_; }

  /// Most-specific categories of `item` (usually one; more when the input
  /// used per-item branch bounds > 1), the first in pre-order first. Empty
  /// when the item is unplaced or out of range. Never allocates.
  std::span<const NodeId> PlacementsOf(ItemId item) const {
    return index_.PlacementsOf(item);
  }

  /// True when `item` is directly placed somewhere in the tree.
  bool Contains(ItemId item) const { return !PlacementsOf(item).empty(); }

  /// Root-to-node path (inclusive) for the item's first most-specific
  /// placement — the breadcrumb a product page shows. Empty when unplaced.
  std::vector<NodeId> PathOf(ItemId item) const;

  /// Root-to-node path of an arbitrary node.
  std::vector<NodeId> PathTo(NodeId node) const;

  /// Labels along PathOf(item), root first ("Fashion > Shoes > Sneakers").
  std::vector<std::string> LabeledPathOf(ItemId item) const;

  /// First node carrying `label` (pre-order; kInvalidNode when absent).
  /// Lookup is O(1) via a label map built at construction.
  NodeId FindLabel(const std::string& label) const;

  /// Full item-set size of the node's subtree (direct items of the node
  /// plus all descendants, an item on two branches counted once) — the
  /// "1,234 items" facet count.
  size_t SubtreeItemCount(NodeId node) const { return index_.size(node); }

  /// Depth of a node (root = 0), precomputed.
  size_t DepthOf(NodeId node) const { return index_.depth(node); }

  /// Number of distinct items with at least one placement.
  size_t num_items_indexed() const { return index_.num_items_placed(); }

  size_t num_categories() const { return tree_.NumCategories(); }

 private:
  CategoryTree tree_;
  TreeVersion version_;
  std::string note_;
  double build_seconds_ = 0.0;

  TreeIndex index_;
  NodeId misc_ = kInvalidNode;
  std::unordered_map<std::string, NodeId> label_to_node_;
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_TREE_SNAPSHOT_H_
