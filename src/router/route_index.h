// RouteIndex: the query router's scorer over one TreeSnapshot. It turns
// "which categories does this result set belong to?" into an exact
// bottom-up count over the snapshot's TreeIndex (core/tree_index.h):
//
//   - Each item of R(q) walks from its placements to the root through the
//     index's parent array (kernel::SubtreeCounter). The walk stamps nodes
//     per item, so an item placed on two branches counts once at their
//     common ancestors. What it leaves is |q ∩ C| for exactly the nodes C
//     that share an item with q.
//   - Only those touched nodes are scored, against the index's sizes |C|.
//
// The snapshot built every array at publish, so Build() only pins it
// (shared_ptr): each request pins one RouteIndex, which keeps its answer
// consistent while TreeStore publishes newer versions.

#ifndef OCT_ROUTER_ROUTE_INDEX_H_
#define OCT_ROUTER_ROUTE_INDEX_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/item_set.h"
#include "fault/cancel.h"
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
  /// Nodes that share at least one item with the query (the root included
  /// when any item is placed): the only nodes scored.
  size_t nodes_visited = 0;
  /// Nodes never touched: num_nodes() - nodes_visited.
  size_t nodes_pruned = 0;
  /// Items of the query under the root's misc child (0 without one).
  size_t items_in_misc = 0;
  /// True when the cancel token expired before the walk finished; the
  /// ranking is then empty.
  bool degraded = false;
};

class RouteIndex {
 public:
  /// The scorer for `snapshot` (must be non-null), which it pins for its
  /// lifetime. O(1): every array it reads is the snapshot's.
  static std::shared_ptr<const RouteIndex> Build(
      std::shared_ptr<const serve::TreeSnapshot> snapshot);

  RouteIndex(const RouteIndex&) = delete;
  RouteIndex& operator=(const RouteIndex&) = delete;

  const serve::TreeSnapshot& snapshot() const { return *snapshot_; }
  serve::TreeVersion version() const { return snapshot_->version(); }

  /// Number of candidate categories (== alive tree nodes, root included).
  size_t num_nodes() const { return snapshot_->index().num_nodes(); }

  /// Scores every category whose Jaccard against `query` reaches
  /// `min_jaccard` and returns the `top_k` best (0 = all) in `out` — sorted
  /// by Jaccard descending, then deeper node first, then NodeId ascending
  /// (a deterministic total order; the serial oracle and Router::Route
  /// produce identical rankings). The root itself is never a result
  /// (routing to "everything" is not an answer). Items of `query` that the
  /// tree does not place, or that lie beyond its universe, still count
  /// toward |q|.
  ///
  /// `cancel` (nullable) is polled before the walk and every 256 items. On
  /// expiry the call returns an empty ranking with stats.degraded set:
  /// partial counts are not overlaps, so no partial ranking is exact.
  ScoreStats ScoreTopK(const ItemSet& query, size_t top_k, double min_jaccard,
                       const fault::CancelToken* cancel,
                       std::vector<NodeScore>* out) const;

 private:
  explicit RouteIndex(std::shared_ptr<const serve::TreeSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  std::shared_ptr<const serve::TreeSnapshot> snapshot_;
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTE_INDEX_H_
