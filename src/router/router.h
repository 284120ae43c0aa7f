// oct::router — online query→category routing against the live tree.
//
// The Router is the serving front end ROADMAP item 4 asks for: a user query
// comes in, its result set is resolved through the data::SearchEngine
// substrate, and the result set is scored against every candidate category
// of the *current* serve::TreeSnapshot via a per-snapshot RouteIndex
// (kernel::ItemSetIndex bitmaps + prefix-filter pruned root→leaf descent).
// The answer is a ranked list of category paths.
//
// Serving shape: Route() resolves and scores on the caller's thread (for
// /route, one of the exposition's HTTP workers). Each request pins its own
// RouteIndex, and thus one snapshot, for its whole answer. There is no
// queue of its own: admission control for HTTP traffic is the exposition's
// bounded connection queue, which answers overflow with 503.
//
// Deadlines are anytime: a request whose budget expires mid-descent gets a
// valid best-so-far ranking with Status kDeadlineExceeded and the degraded
// flag — the library-wide fault::CancelToken convention. A request whose
// budget is already gone once its result set is resolved is shed without
// scoring.
//
// Failpoints: router.resolve (result-set resolution), router.score
// (descent).

#ifndef OCT_ROUTER_ROUTER_H_
#define OCT_ROUTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/search_engine.h"
#include "fault/cancel.h"
#include "kernel/item_set_index.h"
#include "router/route_index.h"
#include "router/router_stats.h"
#include "serve/tree_store.h"
#include "util/status.h"

namespace oct {
namespace router {

/// Longest budget a request may carry: one day. /route rejects a larger
/// deadline_ms with 400, and the router caps RouteRequest::deadline_seconds
/// here so deadline arithmetic stays inside the clock's range.
inline constexpr double kMaxDeadlineSeconds = 24.0 * 60.0 * 60.0;

struct RouterOptions {
  /// Default ranking size when a request does not override it.
  size_t top_k = 5;
  /// Default Jaccard floor: categories scoring below it are not answers.
  double min_jaccard = 0.05;
  /// Relevance threshold for result-set resolution (the paper's 0.8).
  double relevance_threshold = 0.8;
  /// Passed through to RouteIndex::Build at snapshot install.
  kernel::ItemSetIndexOptions index_options;
};

struct RouteRequest {
  data::Query query;
  /// 0 → RouterOptions::top_k.
  size_t top_k = 0;
  /// < 0 → RouterOptions::min_jaccard.
  double min_jaccard = -1.0;
  /// Wall-clock budget from arrival (0 = unlimited; capped at
  /// kMaxDeadlineSeconds). The request degrades to best-so-far past it, or
  /// is shed if it expires before scoring begins.
  double deadline_seconds = 0.0;
  /// Deterministic descent budget in visited nodes (0 = unlimited) — the
  /// testable twin of the wall-clock deadline.
  size_t max_score_nodes = 0;
};

/// One ranked answer: a category and its root→node breadcrumb.
struct RoutedCategory {
  NodeId node = kInvalidNode;
  /// Labels root→node ("Fashion" > "Shoes" > "Sneakers").
  std::vector<std::string> path;
  double jaccard = 0.0;
  double containment = 0.0;
  uint32_t overlap = 0;
  uint32_t depth = 0;
};

struct RouteResult {
  /// OK, kDeadlineExceeded (shed or degraded), kInvalidArgument (malformed
  /// query), kFailedPrecondition (router stopped, or no published tree), or
  /// an injected/real internal error.
  Status status;
  /// Version of the snapshot the request was answered against (0 when no
  /// tree was pinned).
  serve::TreeVersion version = 0;
  /// Ranked categories, best first. Valid (possibly truncated) even when
  /// status is kDeadlineExceeded with degraded set.
  std::vector<RoutedCategory> ranked;
  /// Result-set size of the query at the relevance threshold.
  size_t result_set_size = 0;
  /// Descent cut short; `ranked` is best-so-far.
  bool degraded = false;
  /// Rejected before scoring (router stopped, or deadline gone after
  /// resolve).
  bool shed = false;
  /// Descent accounting (nodes visited / pruned).
  ScoreStats score_stats;
  /// Result-set resolution / descent+rank time (0 for a stage the request
  /// never reached).
  double resolve_seconds = 0.0;
  double score_seconds = 0.0;
  double total_seconds = 0.0;
  /// Trace identity of the request (0 when tracing was never in play).
  uint64_t trace_id = 0;
};

class Router {
 public:
  /// `store` and `engine` must outlive the router. Route() sheds until
  /// Start().
  Router(const serve::TreeStore* store, const data::SearchEngine* engine,
         RouterOptions options = {});

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Opens the router to traffic. Idempotent.
  void Start();

  /// Closes it: later Route() calls shed with kFailedPrecondition, and
  /// /healthz reports the router stopped. Calls already running finish.
  /// Idempotent.
  void Stop();

  bool running() const;

  /// Resolves and scores `request` on the calling thread against the
  /// current snapshot's index, with the router's accounting: stats, the
  /// SLO ledger, and a request trace (the caller's ambient one, or one the
  /// router mints and finishes itself). A stopped router sheds.
  RouteResult Route(const RouteRequest& request);

  /// Serial oracle: the same resolve and score as Route() with no
  /// admission, SLO or trace ownership. Route() must produce an identical
  /// ranking; tests and the bench hold the router to that.
  RouteResult RouteSerial(const RouteRequest& request) const;

  /// The RouteIndex for the store's current snapshot, building and caching
  /// it when the store has published a newer version. Thread-safe; nullptr
  /// before the first publish.
  std::shared_ptr<const RouteIndex> CurrentIndex() const;

  const RouterStats& stats() const { return stats_; }
  const RouterOptions& options() const { return options_; }
  const data::SearchEngine& engine() const { return *engine_; }

 private:
  /// Pins the current index, then resolves and scores `request` against
  /// it; fills everything but total_seconds and trace_id.
  RouteResult Answer(const RouteRequest& request,
                     const fault::CancelToken& cancel) const;
  /// Terminal accounting shared by every answer path.
  void FinishResult(const RouteResult& result) const;

  const serve::TreeStore* store_;
  const data::SearchEngine* engine_;
  const RouterOptions options_;
  mutable RouterStats stats_;
  std::atomic<bool> running_{false};

  /// Index cache: rebuilt lazily when the store publishes a new version.
  /// A plain mutex (not atomic<shared_ptr>) — TSan models mutexes natively
  /// (see serve::detail::SnapshotCell).
  mutable std::mutex index_mu_;
  mutable std::shared_ptr<const RouteIndex> index_cache_;
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTER_H_
