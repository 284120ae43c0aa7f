#include "core/tree_index.h"

#include <algorithm>

namespace oct {

TreeIndex TreeIndex::Build(const CategoryTree& tree) {
  TreeIndex index;
  const size_t n = tree.num_nodes();
  const std::vector<NodeId> order = tree.PreOrder();
  index.parents_.assign(n, kInvalidNode);
  index.depths_.assign(n, 0);
  index.sizes_.assign(n, 0);
  size_t limit = 0;
  for (NodeId id : order) {
    const CategoryNode& node = tree.node(id);
    if (id != tree.root()) {
      index.parents_[id] = node.parent;
      index.depths_[id] = index.depths_[node.parent] + 1;
    }
    index.sizes_[id] = static_cast<uint32_t>(node.direct_items.size());
    if (!node.direct_items.empty()) {
      limit = std::max<size_t>(limit, node.direct_items.items().back() + 1);
    }
  }

  // Item -> placements CSR: count, then turn offsets[i + 1] into item i's
  // first slot, which the pre-order fill advances to item i + 1's first.
  std::vector<uint32_t>& offsets = index.offsets_;
  offsets.assign(limit + 1, 0);
  for (NodeId id : order) {
    for (ItemId item : tree.node(id).direct_items) ++offsets[item + 1];
  }
  std::vector<ItemId> duplicated;  // Items placed more than once.
  uint32_t slots = 0;
  for (size_t i = 0; i < limit; ++i) {
    const uint32_t count = offsets[i + 1];
    if (count > 0) ++index.num_items_placed_;
    if (count > 1) duplicated.push_back(static_cast<ItemId>(i));
    offsets[i + 1] = slots;
    slots += count;
  }
  index.placements_.resize(slots);
  for (NodeId id : order) {
    for (ItemId item : tree.node(id).direct_items) {
      index.placements_[offsets[item + 1]++] = id;
    }
  }

  // Sizes: the post-order sum of direct items, exact for items placed once.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId parent = index.parents_[*it];
    if (parent != kInvalidNode) index.sizes_[parent] += index.sizes_[*it];
  }
  // An item placed k > 1 times was summed k times at the common ancestors
  // of its placements. Its first placement stamps its root path; each later
  // one climbs until it meets a stamped node, which, with every node above
  // it, gets the extra count taken back.
  std::vector<uint32_t> stamps(duplicated.empty() ? 0 : n, 0);
  uint32_t stamp = 0;
  for (ItemId item : duplicated) {
    ++stamp;
    for (NodeId node : index.PlacementsOf(item)) {
      while (node != kInvalidNode && stamps[node] != stamp) {
        stamps[node] = stamp;
        node = index.parents_[node];
      }
      for (; node != kInvalidNode; node = index.parents_[node]) {
        --index.sizes_[node];
      }
    }
  }
  return index;
}

}  // namespace oct
