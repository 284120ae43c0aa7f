#include "router/route_index.h"

#include <algorithm>
#include <utility>

#include "kernel/pairwise.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace router {

std::shared_ptr<const RouteIndex> RouteIndex::Build(
    std::shared_ptr<const serve::TreeSnapshot> snapshot) {
  OCT_CHECK(snapshot != nullptr);
  OCT_SPAN("router/index_build");
  Timer timer;
  auto index = std::shared_ptr<RouteIndex>(new RouteIndex());
  index->snapshot_ = std::move(snapshot);

  const CategoryTree& tree = index->snapshot_->tree();
  index->node_sets_ = tree.ComputeItemSets();
  const std::vector<ItemSet>& sets = index->node_sets_;
  const size_t n = sets.size();

  // Universe: snapshot trees carry the original (dense) item ids, so the
  // universe is one past the largest placed item. The root's full set is
  // the union of everything placed.
  if (n > 0 && !sets[tree.root()].empty()) {
    index->universe_ =
        static_cast<size_t>(sets[tree.root()].items().back()) + 1;
  }

  // Bitmaps for the dense node sets only, densest first under the byte cap.
  index->bitmap_of_.assign(n, -1);
  const size_t universe = index->universe_;
  if (universe > 0) {
    std::vector<NodeId> dense;
    for (NodeId node = 0; node < n; ++node) {
      if (sets[node].size() * 64 * kBitmapDensityFactor >= universe) {
        dense.push_back(node);
      }
    }
    std::sort(dense.begin(), dense.end(), [&](NodeId a, NodeId b) {
      if (sets[a].size() != sets[b].size()) {
        return sets[a].size() > sets[b].size();
      }
      return a < b;
    });
    const size_t max_bitmaps =
        kMaxBitmapBytes /
        (kernel::BitSet::WordsFor(universe) * sizeof(uint64_t));
    if (dense.size() > max_bitmaps) dense.resize(max_bitmaps);
    index->bitmaps_.reserve(dense.size());
    for (NodeId node : dense) {
      index->bitmap_of_[node] = static_cast<int32_t>(index->bitmaps_.size());
      index->bitmaps_.emplace_back(universe);
      index->bitmaps_.back().SetAll(sets[node]);
    }
  }

  // Subtree node counts (itself included) in one post-order pass — the
  // "how much did pruning skip" accounting of ScoreTopK.
  index->subtree_nodes_.assign(n, 1);
  for (NodeId node : tree.PostOrder()) {
    for (NodeId child : tree.node(node).children) {
      index->subtree_nodes_[node] += index->subtree_nodes_[child];
    }
  }

  index->build_seconds_ = timer.ElapsedSeconds();
  static obs::Counter* builds = obs::MetricsRegistry::Default()->GetCounter(
      "router.index_builds_total",
      "RouteIndex builds across all routers (one per installed snapshot)");
  builds->Increment();
  return index;
}

size_t RouteIndex::Overlap(const ItemSet& query, NodeId node) const {
  const int32_t slot = bitmap_of_[node];
  if (slot >= 0) return bitmaps_[slot].IntersectionCount(query);
  return node_sets_[node].IntersectionSize(query);
}

ScoreStats RouteIndex::ScoreTopK(const ItemSet& query, size_t top_k,
                                 double min_jaccard,
                                 const fault::CancelToken* cancel,
                                 std::vector<NodeScore>* out,
                                 size_t max_nodes) const {
  OCT_SPAN("router/score");
  ScoreStats stats;
  out->clear();
  if (query.empty() || node_sets_.empty()) return stats;

  // Queries come from the live engine; the tree's item universe can lag it
  // (items added after the last rebuild). Items outside the universe cannot
  // intersect any category, so clip the probe set — the bitmap probe indexes
  // by item id and must stay in bounds — while Jaccard keeps the full |q|.
  const ItemSet* probe = &query;
  ItemSet clipped;
  if (static_cast<size_t>(query.items().back()) >= universe_) {
    std::vector<ItemId> in_universe;
    for (ItemId id : query.items()) {
      if (static_cast<size_t>(id) < universe_) {
        in_universe.push_back(id);
      } else {
        break;  // Sorted: everything after is out of universe too.
      }
    }
    clipped = ItemSet::FromSorted(std::move(in_universe));
    probe = &clipped;
  }
  if (probe->empty()) return stats;

  // Prefix-filter bound: any category with Jaccard >= t shares at least
  // this many items with q. Subtree sets are nested, so a node below the
  // bound prunes its whole subtree. The bound is always >= 1, so disjoint
  // subtrees are never descended even at t == 0.
  const size_t min_overlap =
      kernel::MinOverlapForJaccard(query.size(), min_jaccard);
  const double q_size = static_cast<double>(query.size());

  const CategoryTree& tree = snapshot_->tree();
  std::vector<NodeId> todo;
  todo.push_back(tree.root());
  while (!todo.empty()) {
    // Poll the budget every 16 visits (and before the first) so small trees
    // still honour an already-expired token deterministically.
    if ((stats.nodes_visited & 15) == 0 &&
        (fault::Cancelled(cancel) ||
         (max_nodes != 0 && stats.nodes_visited >= max_nodes))) {
      stats.degraded = true;
      break;
    }
    const NodeId node = todo.back();
    todo.pop_back();
    ++stats.nodes_visited;

    const size_t overlap = Overlap(*probe, node);
    if (overlap < min_overlap) {
      // The node itself was visited; its descendants are the skipped work.
      stats.nodes_pruned += subtree_nodes_[node] - 1;
      continue;
    }
    if (node != tree.root()) {
      const double c_size = static_cast<double>(node_size(node));
      const double inter = static_cast<double>(overlap);
      NodeScore score;
      score.node = node;
      score.overlap = static_cast<uint32_t>(overlap);
      score.jaccard = inter / (q_size + c_size - inter);
      score.containment = inter / q_size;
      score.depth = static_cast<uint32_t>(snapshot_->DepthOf(node));
      // The overlap bound is necessary, not sufficient — re-check the
      // actual Jaccard (with the same epsilon slack the bound derivation
      // uses, so boundary sets are kept, never dropped).
      if (score.jaccard + 1e-12 >= min_jaccard) out->push_back(score);
    }
    // Reverse order so the explicit stack pops children ascending — the
    // deterministic pre-order both the batched path and the oracle share.
    const auto& children = tree.node(node).children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      todo.push_back(*it);
    }
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
