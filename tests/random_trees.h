// Random model-valid category trees for the size and score oracles
// (test_scoring, test_serve, test_router): random shapes with a few
// tombstones, each item on up to its bound of branches (never two on one
// branch), and some items beyond the input's universe, as a tree scored
// under another input places them (the serving drift probe, the train/test
// split).

#ifndef OCT_TESTS_RANDOM_TREES_H_
#define OCT_TESTS_RANDOM_TREES_H_

#include <string>
#include <vector>

#include "core/category_tree.h"
#include "util/rng.h"

namespace oct {
namespace testing_trees {

struct RandomTree {
  CategoryTree tree;
  /// Branch bound of every item the tree may place, [0, bounds.size()).
  std::vector<uint32_t> bounds;
  /// Items below this are the input's universe; the rest lie beyond it.
  size_t universe = 0;
};

/// Up to `num_nodes` categories over items [0, universe + extra). Each
/// item's bound is drawn from 1..max_bound, and it sits on 0..bound
/// branches (rarely 0).
inline RandomTree MakeRandomTree(uint64_t seed, uint32_t max_bound,
                                 size_t num_nodes = 16, size_t universe = 30,
                                 size_t extra = 4) {
  Rng rng(seed);
  RandomTree out;
  out.universe = universe;
  CategoryTree& tree = out.tree;
  std::vector<NodeId> nodes = {tree.root()};
  for (size_t i = 1; i < num_nodes; ++i) {
    nodes.push_back(tree.AddCategory(nodes[rng.NextBelow(nodes.size())],
                                     "n" + std::to_string(i)));
  }
  // Tombstones before any item is placed: a removal merges the node's
  // items into its parent, which could put an item twice on one branch.
  for (int k = 0; k < 2; ++k) {
    const NodeId victim = nodes[1 + rng.NextBelow(nodes.size() - 1)];
    if (tree.IsAlive(victim)) tree.RemoveNodeKeepChildren(victim);
  }
  std::vector<NodeId> alive;
  for (NodeId id : nodes) {
    if (tree.IsAlive(id)) alive.push_back(id);
  }
  for (ItemId item = 0; item < universe + extra; ++item) {
    const uint32_t bound = 1 + static_cast<uint32_t>(rng.NextBelow(max_bound));
    out.bounds.push_back(bound);
    const size_t copies = rng.NextBernoulli(0.1) ? 0 : 1 + rng.NextBelow(bound);
    std::vector<NodeId> placed;
    for (int attempt = 0; attempt < 8 && placed.size() < copies; ++attempt) {
      const NodeId node = alive[rng.NextBelow(alive.size())];
      bool clash = false;
      for (NodeId p : placed) clash = clash || tree.OnSameBranch(p, node);
      if (!clash) placed.push_back(node);
    }
    for (NodeId node : placed) tree.AssignItem(node, item);
  }
  return out;
}

/// The root → mid → {a, b} tree: item 0 (bound 2) is direct in a and b,
/// item 1 in a, item 2 in b, so mid holds 3 items, not the 4 its children's
/// sizes add up to.
inline CategoryTree SharedItemTree(NodeId* mid) {
  CategoryTree tree;
  *mid = tree.AddCategory(tree.root(), "mid");
  const NodeId a = tree.AddCategory(*mid, "a");
  const NodeId b = tree.AddCategory(*mid, "b");
  for (ItemId x : {0u, 1u}) tree.AssignItem(a, x);
  for (ItemId x : {0u, 2u}) tree.AssignItem(b, x);
  return tree;
}

}  // namespace testing_trees
}  // namespace oct

#endif  // OCT_TESTS_RANDOM_TREES_H_
