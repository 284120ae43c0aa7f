// RouterStats: counters and latency histograms of the query
// router, backed by a per-instance obs::MetricsRegistry (the ServeStats
// pattern) so tests and multi-router processes get independent numbers
// while the standard JSON/Prometheus exporters keep working. Recording
// from many caller threads never synchronizes (sharded relaxed counters).

#ifndef OCT_ROUTER_ROUTER_STATS_H_
#define OCT_ROUTER_ROUTER_STATS_H_

#include <cstdint>
#include <string>

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

/// Plain-value copy of every router metric, safe to pass around.
struct RouterStatsSnapshot {
  /// Requests admitted by a running router.
  uint64_t requests = 0;
  /// Requests answered with at least one ranked category.
  uint64_t routed = 0;
  /// Requests answered OK but with an empty ranking (see UnroutedReason).
  uint64_t unrouted = 0;
  /// Requests dropped because their deadline expired before scoring began.
  uint64_t shed_deadline = 0;
  /// Requests whose deadline expired while they were scored, answered
  /// with an empty ranking. Each admitted request is counted once, as
  /// routed, unrouted, shed, degraded or an error.
  uint64_t degraded = 0;
  /// Requests failed by injected or real errors (resolve/score paths).
  uint64_t errors = 0;
  /// Always 0: the router no longer deduplicates requests. Kept because the
  /// repository benchmark (perfbench/) reads it.
  uint64_t deduped = 0;

  double ShedRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(shed_deadline) /
                               static_cast<double>(requests);
  }

  /// One-line "k=v k=v ..." rendering for logs.
  std::string ToString() const;
};

class RouterStats {
 public:
  RouterStats();
  RouterStats(const RouterStats&) = delete;
  RouterStats& operator=(const RouterStats&) = delete;

  void RecordAdmitted() { requests_->Increment(); }
  void RecordRouted() { routed_->Increment(); }
  void RecordUnrouted(UnroutedReason reason) {
    unrouted_->Increment();
    unrouted_by_reason_[static_cast<size_t>(reason)]->Increment();
  }
  void RecordShedDeadline() { shed_deadline_->Increment(); }
  void RecordDegraded() { degraded_->Increment(); }
  void RecordError() { errors_->Increment(); }
  /// Stage latencies of one answer that reached the stage.
  void RecordResolve(double seconds) { resolve_us_->Record(seconds * 1e6); }
  void RecordScore(double seconds) { score_us_->Record(seconds * 1e6); }
  /// `trace_id` (0 = none) exemplar-links the latency bucket this request
  /// lands in to its trace on /tracez.
  void RecordRoute(double seconds, uint64_t trace_id = 0) {
    route_us_->RecordWithExemplar(seconds * 1e6, trace_id);
  }

  RouterStatsSnapshot Snapshot() const;

  /// The registry backing these stats; usable with obs::MetricsToJson.
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  obs::MetricsRegistry registry_;
  obs::Counter* requests_;
  obs::Counter* routed_;
  obs::Counter* unrouted_;
  obs::Counter* unrouted_by_reason_[kNumUnroutedReasons];
  obs::Counter* shed_deadline_;
  obs::Counter* degraded_;
  obs::Counter* errors_;
  obs::Histogram* route_us_;
  obs::Histogram* resolve_us_;
  obs::Histogram* score_us_;
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTER_STATS_H_
