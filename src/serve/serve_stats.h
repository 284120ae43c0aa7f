// ServeStats: serving-stack counters — lookup volume/hit rate on the read
// path, publish/rollback/rebuild activity on the write path — backed by a
// per-instance obs::MetricsRegistry instead of a hand-rolled atomic block.
// Recording from many reader threads never synchronizes (sharded relaxed
// counters), and Snapshot() gives a consistent-enough view for dashboards
// (each counter is individually exact). The registry is exposed so the
// serving stats participate in the standard JSON exporters.

#ifndef OCT_SERVE_SERVE_STATS_H_
#define OCT_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace oct {
namespace serve {

/// Plain-value copy of every counter, safe to pass around.
struct ServeStatsSnapshot {
  uint64_t item_lookups = 0;
  uint64_t item_hits = 0;
  uint64_t label_lookups = 0;
  uint64_t label_hits = 0;
  uint64_t publishes = 0;
  uint64_t rollbacks = 0;
  uint64_t rebuilds_triggered = 0;
  uint64_t rebuilds_published = 0;
  uint64_t rebuilds_discarded = 0;
  /// Failed build attempts that were retried with backoff.
  uint64_t rebuild_retries = 0;
  /// Drifted batches folded into the pending-latest slot (rebuild busy).
  uint64_t batches_coalesced = 0;
  /// Drifted batches rejected because the circuit breaker was open.
  uint64_t batches_rejected = 0;
  /// Circuit-breaker open / close transitions.
  uint64_t breaker_opened = 0;
  uint64_t breaker_closed = 0;
  /// Breaker state gauge: 0 = closed, 1 = open, 2 = half-open.
  uint64_t breaker_state = 0;
  /// Total wall-clock spent in background rebuilds, microseconds.
  uint64_t rebuild_micros = 0;
  /// Version of the currently served snapshot (0 = none published yet).
  uint64_t current_version = 0;

  double RebuildSeconds() const { return rebuild_micros * 1e-6; }
  double ItemHitRate() const {
    return item_lookups == 0
               ? 0.0
               : static_cast<double>(item_hits) /
                     static_cast<double>(item_lookups);
  }

  /// One-line "k=v k=v ..." rendering for logs.
  std::string ToString() const;
};

class ServeStats {
 public:
  ServeStats();
  ServeStats(const ServeStats&) = delete;
  ServeStats& operator=(const ServeStats&) = delete;

  void RecordItemLookup(bool hit) {
    item_lookups_->Increment();
    if (hit) item_hits_->Increment();
  }
  void RecordLabelLookup(bool hit) {
    label_lookups_->Increment();
    if (hit) label_hits_->Increment();
  }
  void RecordPublish(uint64_t version) {
    publishes_->Increment();
    current_version_->Set(static_cast<int64_t>(version));
  }
  void RecordRollback() { rollbacks_->Increment(); }
  void RecordRebuildTriggered() { rebuilds_triggered_->Increment(); }
  void RecordRebuildFinished(bool published, double seconds);
  void RecordRebuildRetried() { rebuild_retries_->Increment(); }
  void RecordBatchCoalesced() { batches_coalesced_->Increment(); }
  void RecordBatchRejected() { batches_rejected_->Increment(); }
  void RecordBreakerOpened() {
    breaker_opened_->Increment();
    breaker_state_->Set(1);
  }
  void RecordBreakerHalfOpen() { breaker_state_->Set(2); }
  void RecordBreakerClosed() {
    breaker_closed_->Increment();
    breaker_state_->Set(0);
  }

  ServeStatsSnapshot Snapshot() const;

  /// The registry backing these stats; usable with obs::MetricsToJson.
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  /// Per-instance registry: tests and multi-store processes get independent
  /// counters without touching the process-wide default.
  obs::MetricsRegistry registry_;
  obs::Counter* item_lookups_;
  obs::Counter* item_hits_;
  obs::Counter* label_lookups_;
  obs::Counter* label_hits_;
  obs::Counter* publishes_;
  obs::Counter* rollbacks_;
  obs::Counter* rebuilds_triggered_;
  obs::Counter* rebuilds_published_;
  obs::Counter* rebuilds_discarded_;
  obs::Counter* rebuild_retries_;
  obs::Counter* batches_coalesced_;
  obs::Counter* batches_rejected_;
  obs::Counter* breaker_opened_;
  obs::Counter* breaker_closed_;
  obs::Counter* rebuild_micros_;
  obs::Gauge* current_version_;
  obs::Gauge* breaker_state_;
  obs::Histogram* rebuild_us_;
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_SERVE_STATS_H_
