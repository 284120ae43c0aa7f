// RouterStats: the query router's counters and stage-latency histograms,
// one member per metric, declared once with its series name and help (the
// ServeStats pattern). The router increments them; /statusz, tests and
// benches read them in place. A per-instance obs::MetricsRegistry keeps
// multi-router processes' numbers independent while registry() joins the
// /metrics and /varz merge. Increments from many caller threads never
// synchronize (sharded relaxed counters).

#ifndef OCT_ROUTER_ROUTER_STATS_H_
#define OCT_ROUTER_ROUTER_STATS_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace oct {
namespace router {

/// Why an answer that is OK ranked no category. Each has its own counter,
/// router.unrouted_<name>, and the four sum to router.unrouted.
enum class UnroutedReason {
  kEmptyResultSet,  // R(q) is empty.
  kUnplaced,        // No item of R(q) is placed in the tree.
  kMiscDominated,   // More than half of R(q) lies under the root's misc.
  kBelowFloor,      // The rest: no category reached the Jaccard floor.
};
inline constexpr size_t kNumUnroutedReasons = 4;

/// What the repository benchmark (perfbench/) reads through Snapshot().
struct RouterStatsSnapshot {
  /// Always 0: the router no longer deduplicates requests.
  uint64_t deduped = 0;
};

class RouterStats {
  // Declared first: every member below registers into it.
  obs::MetricsRegistry registry_;

 public:
  const obs::MetricsRegistry& registry() const { return registry_; }
  RouterStatsSnapshot Snapshot() const { return {}; }

  /// Each admitted request is counted once more, as routed, unrouted, shed,
  /// degraded or an error.
  obs::Counter& requests = *registry_.GetCounter(
      "router.requests", "Requests admitted by a running router");
  obs::Counter& routed = *registry_.GetCounter(
      "router.routed", "Requests answered with a non-empty ranking");
  obs::Counter& unrouted = *registry_.GetCounter(
      "router.unrouted", "Requests answered OK with an empty ranking");
  /// Indexed by UnroutedReason.
  obs::Counter* const unrouted_by_reason[kNumUnroutedReasons] = {
      registry_.GetCounter("router.unrouted_empty_result_set",
                           "Unrouted: the result set was empty"),
      registry_.GetCounter("router.unrouted_unplaced",
                           "Unrouted: no item of the result set is placed "
                           "in the tree"),
      registry_.GetCounter("router.unrouted_misc_dominated",
                           "Unrouted: more than half of the result set lies "
                           "under the root's misc category"),
      registry_.GetCounter("router.unrouted_below_floor",
                           "Unrouted: no category reached the Jaccard floor "
                           "(the rest)")};
  obs::Counter& shed_deadline = *registry_.GetCounter(
      "router.shed_deadline",
      "Requests dropped: deadline expired before scoring began");
  obs::Counter& degraded = *registry_.GetCounter(
      "router.degraded",
      "Requests whose deadline expired while scoring, answered unranked");
  obs::Counter& errors = *registry_.GetCounter(
      "router.errors", "Requests failed by resolve/score errors");
  /// Stage latencies of each answer that reached the stage; route_us
  /// exemplar-links its bucket to the request's trace on /tracez.
  obs::Histogram& route_us = *registry_.GetHistogram(
      "router.route_us", "End-to-end route latency (arrival to answer)", "us");
  obs::Histogram& resolve_us = *registry_.GetHistogram(
      "router.resolve_us", "Result-set resolution per answer", "us");
  obs::Histogram& score_us = *registry_.GetHistogram(
      "router.score_us", "Scoring and ranking per answer", "us");
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTER_STATS_H_
