// RouteIndex: the per-snapshot scoring structure of the query router. Built
// once when a TreeSnapshot is installed, it turns "which categories does
// this result set belong to?" into a pruned root-to-leaf descent:
//
//   - Every tree node's *full* item set (direct items plus descendants) is
//     materialized once. Dense node sets also get a bitmap, so a query
//     probe costs O(|q|) bit tests per visited node instead of a sorted
//     merge. The descent is the only reader of these bitmaps, so the rule
//     that picks them (kBitmapDensityFactor, kMaxBitmapBytes) lives here.
//   - Scoring descends from the root. Node item sets are nested (a child's
//     set is a subset of its parent's), so |q ∩ child| <= |q ∩ node|: once a
//     node's overlap falls below the prefix-filter bound
//     kernel::MinOverlapForJaccard(|q|, t), no descendant can reach Jaccard
//     >= t and the whole subtree is pruned without being touched.
//
// The index pins the snapshot it was built from (shared_ptr), so results
// computed against it stay valid even while TreeStore publishes newer
// versions — each request pins one RouteIndex, which keeps its answer
// consistent under concurrent publishes.

#ifndef OCT_ROUTER_ROUTE_INDEX_H_
#define OCT_ROUTER_ROUTE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/item_set.h"
#include "fault/cancel.h"
#include "kernel/bitset.h"
#include "serve/tree_snapshot.h"

namespace oct {
namespace router {

/// One scored candidate category.
struct NodeScore {
  NodeId node = kInvalidNode;
  /// |q ∩ C| over the node's full item set.
  uint32_t overlap = 0;
  /// |q ∩ C| / |q ∪ C| — the primary ranking key.
  double jaccard = 0.0;
  /// |q ∩ C| / |q| — how much of the query the category covers.
  double containment = 0.0;
  /// Depth of the node (root = 0); deeper wins ties (more specific).
  uint32_t depth = 0;
};

/// Work accounting of one ScoreTopK call.
struct ScoreStats {
  /// Nodes whose overlap was actually computed.
  size_t nodes_visited = 0;
  /// Nodes skipped because an ancestor fell below the prefix-filter bound.
  size_t nodes_pruned = 0;
  /// True when the cancel token (or max_nodes budget) expired mid-descent;
  /// the returned ranking is the valid best-so-far subset.
  bool degraded = false;
};

class RouteIndex {
 public:
  /// A node set gets a bitmap when |S| * 64 * kBitmapDensityFactor >= U,
  /// i.e. when it holds at least one item per kBitmapDensityFactor bitmap
  /// words. Sparser sets are probed by sorted merge.
  static constexpr size_t kBitmapDensityFactor = 8;
  /// Upper bound on total bitmap memory per index; the densest node sets
  /// get bitmaps first.
  static constexpr size_t kMaxBitmapBytes = size_t{64} << 20;

  /// Builds the scoring index for `snapshot` (must be non-null). The
  /// snapshot is pinned for the index's lifetime.
  static std::shared_ptr<const RouteIndex> Build(
      std::shared_ptr<const serve::TreeSnapshot> snapshot);

  RouteIndex(const RouteIndex&) = delete;
  RouteIndex& operator=(const RouteIndex&) = delete;

  const serve::TreeSnapshot& snapshot() const { return *snapshot_; }
  std::shared_ptr<const serve::TreeSnapshot> snapshot_ptr() const {
    return snapshot_;
  }
  serve::TreeVersion version() const { return snapshot_->version(); }

  /// Seconds spent building (observability: install cost).
  double build_seconds() const { return build_seconds_; }

  /// Number of candidate categories (== alive tree nodes, root included).
  size_t num_nodes() const { return node_sets_.size(); }

  /// Node sets probed through a bitmap; the rest are probed by merge.
  size_t num_bitmaps() const { return bitmaps_.size(); }

  /// Full item-set size of a node.
  size_t node_size(NodeId node) const { return node_sets_[node].size(); }

  /// Scores every category whose Jaccard against `query` can reach
  /// `min_jaccard`, descending root→leaf with subtree pruning, and returns
  /// the `top_k` best in `out` — sorted by Jaccard descending, then deeper
  /// node first, then NodeId ascending (a deterministic total order; the
  /// serial oracle and Router::Route produce identical rankings). The
  /// root itself is never a result (routing to "everything" is not an
  /// answer), but it participates in pruning.
  ///
  /// `cancel` (nullable) is polled every few nodes; on expiry the descent
  /// stops and the best-so-far ranking is returned with stats.degraded set.
  /// `max_nodes` (0 = unlimited) bounds visited nodes the same way — the
  /// deterministic anytime knob used by tests.
  ScoreStats ScoreTopK(const ItemSet& query, size_t top_k, double min_jaccard,
                       const fault::CancelToken* cancel,
                       std::vector<NodeScore>* out,
                       size_t max_nodes = 0) const;

  /// |q ∩ node|: a bitmap probe when the node's set has a bitmap, a sorted
  /// merge otherwise. Items of `query` must be inside the universe.
  size_t Overlap(const ItemSet& query, NodeId node) const;

 private:
  RouteIndex() = default;

  std::shared_ptr<const serve::TreeSnapshot> snapshot_;
  /// Every node's full item set, indexed by NodeId (snapshot trees are
  /// compacted, so node ids are dense).
  std::vector<ItemSet> node_sets_;
  /// One past the largest placed item: the bitmaps' universe.
  size_t universe_ = 0;
  /// NodeId -> slot in bitmaps_, or -1 (probed by merge).
  std::vector<int32_t> bitmap_of_;
  std::vector<kernel::BitSet> bitmaps_;
  /// Nodes in each node's subtree (itself included) — pruning accounting.
  std::vector<uint32_t> subtree_nodes_;
  double build_seconds_ = 0.0;
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTE_INDEX_H_
