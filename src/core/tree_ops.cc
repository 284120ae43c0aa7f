#include "core/tree_ops.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>

#include "core/scoring.h"
#include "kernel/item_set_index.h"
#include "kernel/scratch.h"
#include "util/logging.h"

namespace oct {

namespace {

/// Associated set of a category for the intermediate-parent step: its source
/// set's items, or (for intermediates) the union of its children's sets.
ItemSet AssociatedSet(const OctInput& input, const CategoryTree& tree,
                      NodeId node) {
  const SetId s = tree.node(node).source_set;
  if (s != kInvalidSet) return input.set(s).items;
  return tree.ItemSetOf(node);
}

/// A candidate merge of sibling slots `i` and `j`. The heap orders by `frac`
/// alone, so `inter` rides along without changing which entry pops when.
struct PairEntry {
  double frac;
  uint32_t i, j;
  uint32_t inter;  // |A_i ∩ A_j|
  bool operator<(const PairEntry& other) const { return frac < other.frac; }
};

/// One nonzero overlap of a slot's row: |A_row ∩ A_slot| = inter.
struct Overlap {
  uint32_t slot;
  uint32_t inter;
};

/// Lines 21-23 for one parent: merges its children pairwise under new
/// intermediate categories until two remain or no two intersect. Returns
/// the number of intermediates added.
///
/// Slots 0..n-1 are the children; every merge appends a slot for the new
/// intermediate, whose set is the union of the two merged slots' sets.
/// Overlaps are counted, never recomputed: the initial ones by walking an
/// item -> child postings list over the parent's own items, a merged
/// slot's ones as inter(m,k) = inter(i,k) + inter(j,k) - |A_i ∩ A_j ∩ A_k|.
/// Each slot keeps a row of its nonzero overlaps sorted by partner slot
/// (rows of dead slots are dropped, dead partners skipped when read), so a
/// merge touches only the slots that intersect it. The heap sees the same
/// pushes in the same order as a recompute-everything pass would make:
/// the initial pairs by (i, j) ascending, then after each merge (k, m) for
/// each live k ascending, each with the exact integer overlap, so ties pop
/// in the same order and the tree comes out identical.
size_t MergeSiblings(const OctInput& input, NodeId parent,
                     CategoryTree* tree) {
  std::vector<NodeId> slot_node = tree->node(parent).children;
  const uint32_t n = static_cast<uint32_t>(slot_node.size());
  if (n <= 2) return 0;

  // Item -> holder postings over the items of this parent's children only:
  // sort the (item, child) keys, then number the distinct items 0..d-1 in
  // ascending order. `child_items` lists each child's local item ids.
  std::vector<uint64_t> keys;
  std::vector<uint32_t> item_begin(n + 1, 0);
  for (uint32_t c = 0; c < n; ++c) {
    const ItemSet assoc = AssociatedSet(input, *tree, slot_node[c]);
    item_begin[c + 1] = item_begin[c] + static_cast<uint32_t>(assoc.size());
    for (ItemId item : assoc) keys.push_back(uint64_t{item} << 32 | c);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<uint32_t> holders(keys.size());
  std::vector<uint32_t> holder_begin;
  std::vector<uint32_t> child_items(keys.size());
  std::vector<uint32_t> fill(item_begin.begin(), item_begin.end() - 1);
  for (size_t p = 0; p < keys.size(); ++p) {
    if (p == 0 || (keys[p] >> 32) != (keys[p - 1] >> 32)) {
      holder_begin.push_back(static_cast<uint32_t>(p));
    }
    const uint32_t child = static_cast<uint32_t>(keys[p]);
    holders[p] = child;
    child_items[fill[child]++] =
        static_cast<uint32_t>(holder_begin.size() - 1);
  }
  const size_t num_items = holder_begin.size();
  holder_begin.push_back(static_cast<uint32_t>(keys.size()));
  keys = {};

  // Per-slot state; a run makes at most n - 2 merges, so 2n slots suffice.
  std::vector<uint32_t> set_size(n);
  std::vector<uint32_t> walk_cost(n);  // Sum of member children's sizes.
  std::vector<char> alive(n, 1);
  std::vector<std::vector<Overlap>> rows(n);
  for (uint32_t c = 0; c < n; ++c) {
    set_size[c] = item_begin[c + 1] - item_begin[c];
    walk_cost[c] = set_size[c];
  }
  // A slot's children form a group named by one member child; the group
  // of a smaller merged slot is relabeled into the larger one's.
  std::vector<uint32_t> group_of(n);
  std::vector<uint32_t> group_slot(n);
  std::vector<uint32_t> slot_group(n);
  std::vector<std::vector<uint32_t>> members(n);
  for (uint32_t c = 0; c < n; ++c) {
    group_of[c] = c;
    group_slot[c] = c;
    slot_group[c] = c;
    members[c] = {c};
  }

  std::priority_queue<PairEntry> heap;
  auto push_pair = [&](uint32_t i, uint32_t j, uint32_t inter) {
    const double frac =
        static_cast<double>(inter) /
        static_cast<double>(std::min(set_size[i], set_size[j]));
    heap.push({frac, i, j, inter});
  };

  // Initial overlaps: child i counts its shared items with every later
  // child through the postings; pairs that share nothing cost nothing.
  kernel::DenseCounter counter(2 * static_cast<size_t>(n));
  std::vector<uint32_t> partners;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t p = item_begin[i]; p < item_begin[i + 1]; ++p) {
      const uint32_t item = child_items[p];
      const auto first = holders.begin() + holder_begin[item];
      const auto last = holders.begin() + holder_begin[item + 1];
      for (auto it = std::upper_bound(first, last, i); it != last; ++it) {
        counter.Increment(*it);
      }
    }
    partners = counter.touched();
    std::sort(partners.begin(), partners.end());
    for (uint32_t j : partners) {
      const uint32_t inter = counter.count(j);
      push_pair(i, j, inter);
      rows[i].push_back({j, inter});
      rows[j].push_back({i, inter});
    }
    counter.Reset();
  }

  std::vector<uint32_t> item_stamp(num_items, 0);
  std::vector<uint64_t> slot_stamp(2 * static_cast<size_t>(n), 0);
  uint64_t stamp = 0;
  size_t added = 0;
  size_t live_children = n;
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
    --live_children;  // Two out, one in.
    const uint32_t m = static_cast<uint32_t>(slot_node.size());
    slot_node.push_back(inter_node);
    alive.push_back(1);
    set_size.push_back(set_size[top.i] + set_size[top.j] - top.inter);
    walk_cost.push_back(walk_cost[top.i] + walk_cost[top.j]);

    // |A_i ∩ A_j ∩ A_k| for every live k: walk the distinct items of the
    // cheaper of the two slots; an item shared with the other one counts
    // once toward every other live slot holding it.
    uint32_t small = top.i;
    uint32_t large = top.j;
    if (walk_cost[small] > walk_cost[large]) std::swap(small, large);
    const uint32_t small_group = slot_group[small];
    const uint32_t large_group = slot_group[large];
    for (uint32_t child : members[small_group]) {
      for (uint32_t p = item_begin[child]; p < item_begin[child + 1]; ++p) {
        const uint32_t item = child_items[p];
        if (item_stamp[item] == m) continue;
        item_stamp[item] = m;
        const auto first = holders.begin() + holder_begin[item];
        const auto last = holders.begin() + holder_begin[item + 1];
        bool shared = false;
        for (auto it = first; it != last && !shared; ++it) {
          shared = group_of[*it] == large_group;
        }
        if (!shared) continue;
        ++stamp;
        for (auto it = first; it != last; ++it) {
          const uint32_t g = group_of[*it];
          if (g == small_group || g == large_group) continue;
          const uint32_t k = group_slot[g];
          if (slot_stamp[k] == stamp) continue;
          slot_stamp[k] = stamp;
          counter.Increment(k);
        }
      }
    }

    // Row of m: the live partners of i or j, merged by slot id.
    std::vector<Overlap> row;
    const std::vector<Overlap>& row_i = rows[top.i];
    const std::vector<Overlap>& row_j = rows[top.j];
    size_t x = 0;
    size_t y = 0;
    while (x < row_i.size() || y < row_j.size()) {
      uint32_t k;
      uint32_t inter = 0;
      if (y == row_j.size() ||
          (x < row_i.size() && row_i[x].slot < row_j[y].slot)) {
        k = row_i[x].slot;
        inter = row_i[x++].inter;
      } else if (x == row_i.size() || row_j[y].slot < row_i[x].slot) {
        k = row_j[y].slot;
        inter = row_j[y++].inter;
      } else {
        k = row_i[x].slot;
        inter = row_i[x++].inter + row_j[y++].inter;
      }
      if (!alive[k]) continue;
      row.push_back({k, inter - counter.count(k)});
    }
    counter.Reset();
    rows[top.i] = {};
    rows[top.j] = {};

    // Relabel the cheaper group into the other; it becomes m's group.
    for (uint32_t child : members[small_group]) group_of[child] = large_group;
    members[large_group].insert(members[large_group].end(),
                                members[small_group].begin(),
                                members[small_group].end());
    members[small_group] = {};
    group_slot[large_group] = m;
    slot_group.push_back(large_group);

    for (const Overlap& o : row) {
      push_pair(o.slot, m, o.inter);
      rows[o.slot].push_back({m, o.inter});
    }
    rows.push_back(std::move(row));
  }
  return added;
}

}  // namespace

size_t AddIntermediateCategories(const OctInput& input, CategoryTree* tree) {
  size_t added = 0;
  // Iterate over a snapshot of non-leaf nodes; newly added intermediates are
  // processed by the merge loop of their parent.
  std::vector<NodeId> non_leaves;
  for (NodeId id : tree->PreOrder()) {
    if (!tree->IsLeaf(id)) non_leaves.push_back(id);
  }
  for (NodeId parent : non_leaves) {
    if (tree->IsAlive(parent)) added += MergeSiblings(input, parent, tree);
  }
  return added;
}

CondenseStats CondenseTree(const kernel::ItemSetIndex& index,
                           const Similarity& sim, CategoryTree* tree,
                           NodeId exclude_cover) {
  const OctInput& input = index.input();
  CondenseStats stats;
  // Determine coverage and designated best covers.
  AnnotateCoveredSets(input, sim, tree, exclude_cover);
  std::vector<char> set_covered(input.num_sets(), 0);
  for (NodeId id = 0; id < tree->num_nodes(); ++id) {
    if (!tree->IsAlive(id)) continue;
    for (SetId q : tree->node(id).covered_sets) set_covered[q] = 1;
  }

  // Line 24: remove items that only appear in uncovered sets (an item in
  // no input set stays).
  std::vector<char> removable(input.universe_size(), 0);
  for (ItemId item = 0; item < input.universe_size(); ++item) {
    const std::span<const SetId> sets = index.SetsOf(item);
    removable[item] =
        !sets.empty() && std::none_of(sets.begin(), sets.end(),
                                      [&](SetId q) { return set_covered[q]; });
  }
  for (NodeId id = 0; id < tree->num_nodes(); ++id) {
    if (!tree->IsAlive(id)) continue;
    auto& node = tree->mutable_node(id);
    std::vector<ItemId> kept;
    kept.reserve(node.direct_items.size());
    for (ItemId item : node.direct_items) {
      if (removable[item]) {
        ++stats.items_removed;
      } else {
        kept.push_back(item);
      }
    }
    if (kept.size() != node.direct_items.size()) {
      node.direct_items = ItemSet::FromSorted(std::move(kept));
    }
  }
  // Item removal can change precisions, hence coverage; re-annotate.
  if (stats.items_removed > 0) {
    AnnotateCoveredSets(input, sim, tree, exclude_cover);
  }

  // Line 25: remove categories that are the best cover of no set. Children
  // re-attach to the parent and direct items merge upward, so surviving
  // categories keep their full item sets.
  for (NodeId id : tree->PostOrder()) {
    if (id == tree->root() || !tree->IsAlive(id)) continue;
    if (tree->node(id).covered_sets.empty()) {
      tree->RemoveNodeKeepChildren(id);
      ++stats.categories_removed;
    }
  }
  return stats;
}

NodeId AddMiscCategory(const OctInput& input, CategoryTree* tree) {
  std::vector<char> placed(input.universe_size(), 0);
  for (NodeId id = 0; id < tree->num_nodes(); ++id) {
    if (!tree->IsAlive(id)) continue;
    for (ItemId item : tree->node(id).direct_items) placed[item] = 1;
  }
  std::vector<ItemId> unassigned;
  for (ItemId item = 0; item < input.universe_size(); ++item) {
    if (!placed[item]) unassigned.push_back(item);
  }
  if (unassigned.empty()) return kInvalidNode;
  const NodeId misc = tree->AddCategory(tree->root(), kMiscLabel);
  tree->mutable_node(misc).direct_items =
      ItemSet::FromSorted(std::move(unassigned));
  return misc;
}

}  // namespace oct
