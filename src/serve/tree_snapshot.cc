#include "serve/tree_snapshot.h"

#include <algorithm>
#include <utility>

#include "core/tree_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace oct {
namespace serve {

TreeSnapshot::TreeSnapshot(CategoryTree tree, TreeVersion version,
                           std::string note)
    : tree_(std::move(tree)), version_(version), note_(std::move(note)) {
  OCT_SPAN("serve/snapshot_build");
  Timer timer;
  tree_.Compact();

  index_ = TreeIndex::Build(tree_);
  for (NodeId child : tree_.node(tree_.root()).children) {
    if (tree_.node(child).label == kMiscLabel) {
      misc_ = child;
      break;
    }
  }
  // Label map: first pre-order occurrence wins (stable across rebuilds that
  // keep labels).
  for (NodeId id : tree_.PreOrder()) {
    const std::string& label = tree_.node(id).label;
    if (!label.empty()) label_to_node_.emplace(label, id);
  }

  build_seconds_ = timer.ElapsedSeconds();
  static obs::Histogram* build_us =
      obs::MetricsRegistry::Default()->GetHistogram("serve.snapshot_build_us");
  build_us->Record(build_seconds_ * 1e6);
}

std::vector<NodeId> TreeSnapshot::PathTo(NodeId node) const {
  std::vector<NodeId> path;
  for (NodeId id = node; id != kInvalidNode; id = tree_.node(id).parent) {
    path.push_back(id);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> TreeSnapshot::PathOf(ItemId item) const {
  const auto placements = PlacementsOf(item);
  if (placements.empty()) return {};
  return PathTo(placements.front());
}

std::vector<std::string> TreeSnapshot::LabeledPathOf(ItemId item) const {
  std::vector<std::string> labels;
  for (NodeId id : PathOf(item)) labels.push_back(tree_.node(id).label);
  return labels;
}

NodeId TreeSnapshot::FindLabel(const std::string& label) const {
  const auto it = label_to_node_.find(label);
  return it == label_to_node_.end() ? kInvalidNode : it->second;
}

}  // namespace serve
}  // namespace oct
