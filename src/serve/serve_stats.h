// ServeStats: the serving stack's write-path metrics — publishes, rebuilds,
// batch admission and the rebuild circuit breaker. Each metric is one
// member, declared once with its series name; callers increment it and
// readers (/statusz, tests, benches) read it in place. The series live in a
// per-instance obs::MetricsRegistry, so tests and multi-store processes keep
// independent numbers while registry() joins the /metrics and /varz merge.
// Increments from many threads never synchronize (sharded relaxed counters).

#ifndef OCT_SERVE_SERVE_STATS_H_
#define OCT_SERVE_SERVE_STATS_H_

#include "obs/metrics.h"

namespace oct {
namespace serve {

class ServeStats {
  // Declared first: every member below registers into it.
  obs::MetricsRegistry registry_;

 public:
  const obs::MetricsRegistry& registry() const { return registry_; }

  obs::Counter& publishes = *registry_.GetCounter("serve.publishes");
  obs::Counter& rebuilds_triggered =
      *registry_.GetCounter("serve.rebuilds_triggered");
  obs::Counter& rebuilds_published =
      *registry_.GetCounter("serve.rebuilds_published");
  obs::Counter& rebuilds_discarded =
      *registry_.GetCounter("serve.rebuilds_discarded");
  /// Failed build attempts that were retried with backoff.
  obs::Counter& rebuild_retries =
      *registry_.GetCounter("serve.rebuild_retries");
  /// Drifted batches folded into the pending-latest slot (rebuild busy).
  obs::Counter& batches_coalesced =
      *registry_.GetCounter("serve.batches_coalesced");
  /// Drifted batches rejected because the circuit breaker was open.
  obs::Counter& batches_rejected =
      *registry_.GetCounter("serve.batches_rejected");
  /// Circuit-breaker open / close transitions.
  obs::Counter& breaker_opened = *registry_.GetCounter("serve.breaker_opened");
  obs::Counter& breaker_closed = *registry_.GetCounter("serve.breaker_closed");
  /// Breaker state: a CircuitState (0 = closed, 1 = open, 2 = half-open).
  obs::Gauge& breaker_state = *registry_.GetGauge("serve.breaker_state");
  /// Version of the currently served snapshot (0 = none published yet).
  obs::Gauge& current_version = *registry_.GetGauge("serve.current_version");
  /// Wall-clock of each finished background rebuild, microseconds.
  obs::Histogram& rebuild_us = *registry_.GetHistogram("serve.rebuild_us");
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_SERVE_STATS_H_
