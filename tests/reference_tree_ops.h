// Reference implementation of Algorithm 1 lines 21-23 (intermediate
// categories), kept as the oracle for AddIntermediateCategories.
//
// It recomputes every sibling overlap with a sorted-merge intersection and
// materializes each merged slot's union. The production pass counts the
// overlaps instead and must emit the same heap pushes in the same order,
// so on every input it leaves a SerializeTree-identical tree and returns
// the same count as this one.

#ifndef OCT_TESTS_REFERENCE_TREE_OPS_H_
#define OCT_TESTS_REFERENCE_TREE_OPS_H_

#include <algorithm>
#include <queue>
#include <vector>

#include "core/category_tree.h"
#include "core/input.h"

namespace oct {
namespace reference {

inline ItemSet AssociatedSet(const OctInput& input, const CategoryTree& tree,
                             NodeId node) {
  const SetId s = tree.node(node).source_set;
  if (s != kInvalidSet) return input.set(s).items;
  return tree.ItemSetOf(node);
}

inline size_t AddIntermediateCategories(const OctInput& input,
                                        CategoryTree* tree) {
  size_t added = 0;
  std::vector<NodeId> non_leaves;
  for (NodeId id : tree->PreOrder()) {
    if (!tree->IsLeaf(id)) non_leaves.push_back(id);
  }
  for (NodeId parent : non_leaves) {
    if (!tree->IsAlive(parent)) continue;
    std::vector<NodeId> slot_node = tree->node(parent).children;
    std::vector<ItemSet> assoc;
    std::vector<char> alive(slot_node.size(), 1);
    assoc.reserve(slot_node.size());
    for (NodeId c : slot_node) assoc.push_back(AssociatedSet(input, *tree, c));

    struct PairEntry {
      double frac;
      size_t i, j;
      bool operator<(const PairEntry& other) const {
        return frac < other.frac;
      }
    };
    std::priority_queue<PairEntry> heap;
    auto push_pair = [&](size_t i, size_t j) {
      const size_t inter = assoc[i].IntersectionSize(assoc[j]);
      if (inter == 0) return;
      const double frac =
          static_cast<double>(inter) /
          static_cast<double>(std::min(assoc[i].size(), assoc[j].size()));
      heap.push({frac, i, j});
    };
    for (size_t i = 0; i < slot_node.size(); ++i) {
      for (size_t j = i + 1; j < slot_node.size(); ++j) push_pair(i, j);
    }
    size_t live_children = slot_node.size();
    while (live_children > 2 && !heap.empty()) {
      const PairEntry top = heap.top();
      heap.pop();
      if (!alive[top.i] || !alive[top.j]) continue;  // Stale entry.
      const NodeId a = slot_node[top.i];
      const NodeId b = slot_node[top.j];
      const NodeId inter_node = tree->AddCategory(
          parent, tree->node(a).label + "+" + tree->node(b).label);
      tree->MoveNode(a, inter_node);
      tree->MoveNode(b, inter_node);
      ++added;
      alive[top.i] = 0;
      alive[top.j] = 0;
      slot_node.push_back(inter_node);
      assoc.push_back(assoc[top.i].Union(assoc[top.j]));
      alive.push_back(1);
      --live_children;
      const size_t m = slot_node.size() - 1;
      for (size_t k = 0; k < m; ++k) {
        if (alive[k]) push_pair(k, m);
      }
    }
  }
  return added;
}

}  // namespace reference
}  // namespace oct

#endif  // OCT_TESTS_REFERENCE_TREE_OPS_H_
