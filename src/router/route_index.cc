#include "router/route_index.h"

#include <algorithm>
#include <utility>

#include "kernel/pairwise.h"
#include "kernel/scratch.h"
#include "util/logging.h"

namespace oct {
namespace router {

std::shared_ptr<const RouteIndex> RouteIndex::Build(
    std::shared_ptr<const serve::TreeSnapshot> snapshot) {
  OCT_CHECK(snapshot != nullptr);
  return std::shared_ptr<const RouteIndex>(new RouteIndex(std::move(snapshot)));
}

ScoreStats RouteIndex::ScoreTopK(const ItemSet& query, size_t top_k,
                                 double min_jaccard,
                                 const fault::CancelToken* cancel,
                                 std::vector<NodeScore>* out) const {
  ScoreStats stats;
  out->clear();
  if (query.empty()) return stats;

  // Overlap of q with every node that shares an item with it. Items the
  // tree does not place (or beyond its universe) have no placements.
  const TreeIndex& tree = snapshot_->index();
  kernel::SubtreeCounter overlap(tree.parents());
  const std::vector<ItemId>& items = query.items();
  for (size_t i = 0; i < items.size(); ++i) {
    if (i % 256 == 0 && fault::Cancelled(cancel)) {
      stats.degraded = true;
      return stats;
    }
    overlap.AddItem(tree.PlacementsOf(items[i]));
  }
  const NodeId root = snapshot_->tree().root();
  stats.nodes_visited = overlap.touched().size();
  stats.nodes_pruned = num_nodes() - stats.nodes_visited;
  const NodeId misc = snapshot_->misc();
  if (misc != kInvalidNode) stats.items_in_misc = overlap.count(misc);

  // Prefix-filter bound: any category with Jaccard >= t shares at least
  // this many items with q. It is always >= 1, and untouched nodes share
  // none, so scoring only the touched nodes loses nothing.
  const size_t min_overlap =
      kernel::MinOverlapForJaccard(query.size(), min_jaccard);
  const double q_size = static_cast<double>(query.size());
  for (NodeId node : overlap.touched()) {
    const size_t shared = overlap.count(node);
    if (node == root || shared < min_overlap) continue;
    const double c_size = static_cast<double>(tree.size(node));
    const double inter = static_cast<double>(shared);
    NodeScore score;
    score.node = node;
    score.overlap = static_cast<uint32_t>(shared);
    score.jaccard = inter / (q_size + c_size - inter);
    score.containment = inter / q_size;
    score.depth = tree.depth(node);
    // The overlap bound is necessary, not sufficient — re-check the
    // actual Jaccard (with the same epsilon slack the bound derivation
    // uses, so boundary sets are kept, never dropped).
    if (score.jaccard + 1e-12 >= min_jaccard) out->push_back(score);
  }

  std::sort(out->begin(), out->end(),
            [](const NodeScore& a, const NodeScore& b) {
              if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
              if (a.depth != b.depth) return a.depth > b.depth;
              return a.node < b.node;
            });
  if (top_k != 0 && out->size() > top_k) out->resize(top_k);
  return stats;
}

}  // namespace router
}  // namespace oct
