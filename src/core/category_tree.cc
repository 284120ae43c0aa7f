#include "core/category_tree.h"

#include <algorithm>
#include <sstream>

#include "core/tree_index.h"
#include "util/logging.h"

namespace oct {

CategoryTree::CategoryTree() {
  CategoryNode root;
  root.label = "root";
  nodes_.push_back(std::move(root));
}

size_t CategoryTree::NumCategories() const {
  size_t count = 0;
  for (const auto& n : nodes_) {
    if (n.alive) ++count;
  }
  return count;
}

NodeId CategoryTree::AddCategory(NodeId parent, std::string label,
                                 SetId source_set) {
  OCT_CHECK_LT(parent, nodes_.size());
  OCT_CHECK(nodes_[parent].alive);
  CategoryNode n;
  n.parent = parent;
  n.label = std::move(label);
  n.source_set = source_set;
  nodes_.push_back(std::move(n));
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  nodes_[parent].children.push_back(id);
  return id;
}

void CategoryTree::MoveNode(NodeId node, NodeId new_parent) {
  OCT_CHECK_NE(node, root());
  OCT_CHECK(nodes_[node].alive && nodes_[new_parent].alive);
  OCT_CHECK(!IsAncestor(node, new_parent));
  OCT_CHECK_NE(node, new_parent);
  auto& old_children = nodes_[nodes_[node].parent].children;
  old_children.erase(std::find(old_children.begin(), old_children.end(), node));
  nodes_[node].parent = new_parent;
  nodes_[new_parent].children.push_back(node);
}

void CategoryTree::RemoveNodeKeepChildren(NodeId node) {
  OCT_CHECK_NE(node, root());
  OCT_CHECK(nodes_[node].alive);
  const NodeId parent = nodes_[node].parent;
  auto& pc = nodes_[parent].children;
  pc.erase(std::find(pc.begin(), pc.end(), node));
  for (NodeId child : nodes_[node].children) {
    nodes_[child].parent = parent;
    pc.push_back(child);
  }
  nodes_[parent].direct_items.UnionInPlace(nodes_[node].direct_items);
  nodes_[node].alive = false;
  nodes_[node].children.clear();
  nodes_[node].direct_items = ItemSet();
}

size_t CategoryTree::Depth(NodeId id) const {
  size_t d = 0;
  while (nodes_[id].parent != kInvalidNode) {
    id = nodes_[id].parent;
    ++d;
  }
  return d;
}

bool CategoryTree::IsAncestor(NodeId a, NodeId b) const {
  NodeId cur = nodes_[b].parent;
  while (cur != kInvalidNode) {
    if (cur == a) return true;
    cur = nodes_[cur].parent;
  }
  return false;
}

bool CategoryTree::OnSameBranch(NodeId a, NodeId b) const {
  return a == b || IsAncestor(a, b) || IsAncestor(b, a);
}

std::vector<NodeId> CategoryTree::LeavesUnder(NodeId node) const {
  std::vector<NodeId> leaves;
  std::vector<NodeId> stack = {node};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (nodes_[cur].children.empty()) {
      leaves.push_back(cur);
    } else {
      for (NodeId c : nodes_[cur].children) stack.push_back(c);
    }
  }
  return leaves;
}

std::vector<NodeId> CategoryTree::PreOrder() const {
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<NodeId> stack = {root()};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    const auto& children = nodes_[cur].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return order;
}

std::vector<NodeId> CategoryTree::PostOrder() const {
  std::vector<NodeId> order = PreOrder();
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<ItemSet> CategoryTree::ComputeItemSets() const {
  std::vector<ItemSet> sets(nodes_.size());
  for (NodeId id : PostOrder()) {
    ItemSet full = nodes_[id].direct_items;
    for (NodeId c : nodes_[id].children) full.UnionInPlace(sets[c]);
    sets[id] = std::move(full);
  }
  return sets;
}

ItemSet CategoryTree::ItemSetOf(NodeId node) const {
  ItemSet full;
  std::vector<NodeId> stack = {node};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    full.UnionInPlace(nodes_[cur].direct_items);
    for (NodeId c : nodes_[cur].children) stack.push_back(c);
  }
  return full;
}

Status CategoryTree::ValidateStructure() const {
  if (nodes_.empty() || !nodes_[0].alive || nodes_[0].parent != kInvalidNode) {
    return Status::Internal("malformed root");
  }
  size_t alive = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const auto& n = nodes_[id];
    if (!n.alive) {
      if (!n.children.empty()) {
        return Status::Internal("tombstone with children");
      }
      continue;
    }
    ++alive;
    if (id != 0) {
      if (n.parent == kInvalidNode || n.parent >= nodes_.size() ||
          !nodes_[n.parent].alive) {
        return Status::Internal("node " + std::to_string(id) +
                                " has invalid parent");
      }
      const auto& pc = nodes_[n.parent].children;
      if (std::count(pc.begin(), pc.end(), id) != 1) {
        return Status::Internal("parent/child link inconsistent at node " +
                                std::to_string(id));
      }
    }
    for (NodeId c : n.children) {
      if (c >= nodes_.size() || !nodes_[c].alive || nodes_[c].parent != id) {
        return Status::Internal("child link inconsistent at node " +
                                std::to_string(id));
      }
    }
  }
  // Reachability: every alive node must be reachable from the root.
  if (PreOrder().size() != alive) {
    return Status::Internal("tree contains unreachable nodes or a cycle");
  }
  return Status::OK();
}

Status CategoryTree::ValidateModel(const OctInput& input) const {
  OCT_RETURN_NOT_OK(ValidateStructure());
  // Count most-specific placements per item and detect same-branch repeats.
  const TreeIndex index = TreeIndex::Build(*this);
  NodeId outside = kInvalidNode;
  for (size_t item = input.universe_size(); item < index.item_limit();
       ++item) {
    for (NodeId id : index.PlacementsOf(static_cast<ItemId>(item))) {
      outside = std::min(outside, id);
    }
  }
  if (outside != kInvalidNode) {
    return Status::Internal("item outside the universe in node " +
                            std::to_string(outside));
  }
  for (size_t i = 0; i < index.item_limit(); ++i) {
    const ItemId item = static_cast<ItemId>(i);
    const std::span<const NodeId> nodes = index.PlacementsOf(item);
    const uint32_t bound = input.ItemBound(item);
    if (nodes.size() > bound) {
      return Status::Internal(
          "item " + std::to_string(item) + " has " +
          std::to_string(nodes.size()) + " most-specific categories, bound " +
          std::to_string(bound));
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = i + 1; j < nodes.size(); ++j) {
        if (OnSameBranch(nodes[i], nodes[j])) {
          return Status::Internal("item " + std::to_string(item) +
                                  " placed twice on one branch");
        }
      }
    }
  }
  return Status::OK();
}

std::vector<NodeId> CategoryTree::Compact() {
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);
  std::vector<CategoryNode> compacted;
  compacted.reserve(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (!nodes_[id].alive) continue;
    remap[id] = static_cast<NodeId>(compacted.size());
    compacted.push_back(std::move(nodes_[id]));
  }
  for (auto& n : compacted) {
    if (n.parent != kInvalidNode) n.parent = remap[n.parent];
    for (auto& c : n.children) c = remap[c];
  }
  nodes_ = std::move(compacted);
  return remap;
}

std::string CategoryTree::ToString(size_t max_items_per_node) const {
  std::ostringstream out;
  const TreeIndex index = TreeIndex::Build(*this);
  // Recursive lambda over alive nodes.
  auto render = [&](auto&& self, NodeId id, size_t indent) -> void {
    out << std::string(indent * 2, ' ');
    out << (nodes_[id].label.empty() ? ("category#" + std::to_string(id))
                                     : nodes_[id].label);
    out << " [" << index.size(id) << " items]";
    if (nodes_[id].direct_items.size() > 0 &&
        nodes_[id].direct_items.size() <= max_items_per_node) {
      out << " direct=" << nodes_[id].direct_items.ToString();
    }
    out << "\n";
    for (NodeId c : nodes_[id].children) self(self, c, indent + 1);
  };
  render(render, root(), 0);
  return out.str();
}

}  // namespace oct
