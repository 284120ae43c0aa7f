// CategoryTree: the solution representation of the OCT model (Section 2.1).
//
// A category tree is a rooted tree where every node represents a category
// (a subset of U). Validity requirements:
//   (1) every non-leaf category contains the union of its children's items
//       (and possibly more);
//   (2) every item belongs to exactly one most-specific category (or, with
//       relaxed per-item bounds, at most `bound` most-specific categories),
//       together with all of that category's ancestors.
//
// The tree therefore stores, per node, only the *direct* items — items whose
// most-specific category is that node. The full item set of a category is
// the union of its direct items and its descendants' full sets, computed on
// demand (requirement (1) then holds by construction). TreeIndex
// (core/tree_index.h) derives parents, depths, placements and full-set
// sizes from a tree in one pass.

#ifndef OCT_CORE_CATEGORY_TREE_H_
#define OCT_CORE_CATEGORY_TREE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/input.h"
#include "core/item_set.h"
#include "util/status.h"

namespace oct {

/// Index of a node within a CategoryTree.
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr SetId kInvalidSet = std::numeric_limits<SetId>::max();

/// One category node. `direct_items` holds only the items whose
/// most-specific category is this node.
struct CategoryNode {
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  ItemSet direct_items;
  std::string label;
  /// Candidate set this category was created for (kInvalidSet for root,
  /// misc, and intermediate categories).
  SetId source_set = kInvalidSet;
  /// Input sets this category covers; filled by scoring/condensing and used
  /// for labeling (Section 2.3 "Labeling").
  std::vector<SetId> covered_sets;
  bool alive = true;
};

/// A rooted category tree. Node 0 is always the root. Removed nodes become
/// tombstones (alive == false) so NodeIds stay stable; Compact() drops them.
class CategoryTree {
 public:
  /// Creates a tree with only the root category.
  CategoryTree();

  NodeId root() const { return 0; }
  /// Total slots including tombstones; iterate with IsAlive().
  size_t num_nodes() const { return nodes_.size(); }
  /// Number of alive categories (including the root).
  size_t NumCategories() const;

  bool IsAlive(NodeId id) const { return nodes_[id].alive; }
  const CategoryNode& node(NodeId id) const { return nodes_[id]; }
  CategoryNode& mutable_node(NodeId id) { return nodes_[id]; }

  /// Adds a category under `parent`; returns its id.
  NodeId AddCategory(NodeId parent, std::string label = "",
                     SetId source_set = kInvalidSet);

  /// Re-parents `node` (and its subtree) under `new_parent`.
  /// Precondition: `new_parent` is not in `node`'s subtree.
  void MoveNode(NodeId node, NodeId new_parent);

  /// Removes `node`, attaching its children to its parent and merging its
  /// direct items into the parent's direct items. Precondition: not root.
  void RemoveNodeKeepChildren(NodeId node);

  /// Adds `item` to `node`'s direct items.
  void AssignItem(NodeId node, ItemId item) {
    nodes_[node].direct_items.Insert(item);
  }
  /// Removes `item` from `node`'s direct items (no-op when absent).
  void UnassignItem(NodeId node, ItemId item) {
    nodes_[node].direct_items.Erase(item);
  }

  bool IsLeaf(NodeId id) const { return nodes_[id].children.empty(); }
  /// Number of edges from the root (root depth is 0).
  size_t Depth(NodeId id) const;
  /// True when `a` is a proper ancestor of `b`.
  bool IsAncestor(NodeId a, NodeId b) const;
  /// True when `a` and `b` lie on one root-to-leaf branch (equal, or one is
  /// an ancestor of the other).
  bool OnSameBranch(NodeId a, NodeId b) const;

  /// Leaves in the subtree of `node` (each leaf identifies one branch).
  std::vector<NodeId> LeavesUnder(NodeId node) const;

  /// All alive node ids in pre-order (root first).
  std::vector<NodeId> PreOrder() const;
  /// All alive node ids in post-order (root last).
  std::vector<NodeId> PostOrder() const;

  /// Materialized full item set per node. O(sum of set sizes); prefer
  /// TreeIndex (core/tree_index.h) sizes plus targeted intersections on
  /// large trees.
  std::vector<ItemSet> ComputeItemSets() const;

  /// Full item set of one node.
  ItemSet ItemSetOf(NodeId node) const;

  /// Structural validity: parent/child consistency, tree-ness, alive flags.
  Status ValidateStructure() const;

  /// Model validity (Section 2.1): items within universe; every item's
  /// number of most-specific placements is within its bound; no item is
  /// direct in two nodes of the same branch.
  Status ValidateModel(const OctInput& input) const;

  /// Drops tombstones, remapping ids. Returns old-id -> new-id map
  /// (kInvalidNode for removed entries).
  std::vector<NodeId> Compact();

  /// Multi-line indented rendering (labels + sizes) for logs and examples.
  std::string ToString(size_t max_items_per_node = 12) const;

 private:
  std::vector<CategoryNode> nodes_;
};

}  // namespace oct

#endif  // OCT_CORE_CATEGORY_TREE_H_
