#include "core/tree_diff.h"

#include <algorithm>
#include <unordered_map>

#include "core/similarity.h"
#include "core/tree_ops.h"

namespace oct {

namespace {

struct CategoryView {
  NodeId node;
  ItemSet items;
};

/// All curated categories (alive, non-root, non-misc, non-empty).
std::vector<CategoryView> Categories(const CategoryTree& tree) {
  std::vector<CategoryView> out;
  const auto sets = tree.ComputeItemSets();
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.IsAlive(id) || id == tree.root()) continue;
    if (tree.node(id).label == kMiscLabel) continue;
    if (sets[id].empty()) continue;
    out.push_back({id, sets[id]});
  }
  return out;
}

/// item -> most-specific category, restricted to curated categories.
std::unordered_map<ItemId, NodeId> Placements(const CategoryTree& tree) {
  std::unordered_map<ItemId, NodeId> out;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.IsAlive(id) || id == tree.root()) continue;
    if (tree.node(id).label == kMiscLabel) continue;
    for (ItemId item : tree.node(id).direct_items) out.emplace(item, id);
  }
  return out;
}

}  // namespace

TreeDiff CompareTrees(const CategoryTree& old_tree,
                      const CategoryTree& new_tree) {
  TreeDiff diff;
  const auto old_cats = Categories(old_tree);
  const auto new_cats = Categories(new_tree);

  // Best old match per new category (and coverage of old categories).
  std::vector<char> old_matched(old_cats.size(), 0);
  std::unordered_map<NodeId, NodeId> new_to_old;
  double overlap_sum = 0.0;
  for (const auto& nc : new_cats) {
    double best = 0.0;
    size_t best_old = SIZE_MAX;
    for (size_t o = 0; o < old_cats.size(); ++o) {
      const double j = JaccardFromSizes(
          nc.items.size(), old_cats[o].items.size(),
          nc.items.IntersectionSize(old_cats[o].items));
      if (j > best) {
        best = j;
        best_old = o;
      }
    }
    overlap_sum += best;
    if (best >= 0.5 && best_old != SIZE_MAX) {
      ++diff.matched_categories;
      old_matched[best_old] = 1;
      new_to_old[nc.node] = old_cats[best_old].node;
    } else {
      ++diff.novel_categories;
    }
  }
  diff.mean_category_overlap =
      new_cats.empty() ? 1.0
                       : overlap_sum / static_cast<double>(new_cats.size());
  for (char m : old_matched) {
    if (!m) ++diff.dropped_categories;
  }

  // Item stability: did the item's most-specific category keep pointing at
  // the same old category?
  const auto old_place = Placements(old_tree);
  const auto new_place = Placements(new_tree);
  for (const auto& [item, new_node] : new_place) {
    auto old_it = old_place.find(item);
    if (old_it == old_place.end()) continue;
    ++diff.items_compared;
    auto mapped = new_to_old.find(new_node);
    if (mapped == new_to_old.end() || mapped->second != old_it->second) {
      ++diff.items_moved;
    }
  }
  return diff;
}

}  // namespace oct
