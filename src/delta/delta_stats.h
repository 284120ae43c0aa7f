// DeltaStats: the incremental maintenance path's counters, gauges and
// latency histograms, one member per metric, declared once with its series
// name and help (the ServeStats pattern). The DeltaBuilder that owns them
// increments them; /statusz, tests and benches read them in place. A
// per-instance obs::MetricsRegistry keeps multi-maintainer processes'
// numbers independent while registry() joins the /metrics and /varz merge.
// All series live under delta.*.

#ifndef OCT_DELTA_DELTA_STATS_H_
#define OCT_DELTA_DELTA_STATS_H_

#include "obs/metrics.h"

namespace oct {
namespace delta {

class DeltaStats {
  // Declared first: every member below registers into it.
  obs::MetricsRegistry registry_;

 public:
  const obs::MetricsRegistry& registry() const { return registry_; }

  obs::Counter& batches = *registry_.GetCounter(
      "delta.batches", "Delta batches applied to the working set");
  obs::Counter& ops_applied = *registry_.GetCounter(
      "delta.ops_applied", "Ops that changed the working set");
  obs::Counter& ops_noop = *registry_.GetCounter(
      "delta.ops_noop",
      "Ops with no effect (identical upsert, unknown remove)");
  obs::Counter& components_rebuilt = *registry_.GetCounter(
      "delta.components_rebuilt",
      "Intersection-graph components re-resolved because a batch touched "
      "them");
  obs::Counter& components_reused = *registry_.GetCounter(
      "delta.components_reused",
      "Clean components spliced from the component cache");
  obs::Counter& sets_rebuilt = *registry_.GetCounter(
      "delta.sets_rebuilt", "Candidate sets inside rebuilt components");
  obs::Counter& fallbacks_full = *registry_.GetCounter(
      "delta.fallbacks_full",
      "Batches past the drift bound that fell back to a full rebuild");
  /// Counted whether or not the caller published the tree.
  obs::Counter& splices = *registry_.GetCounter(
      "delta.splices", "Spliced cumulative trees produced");
  obs::Counter& equivalence_checks = *registry_.GetCounter(
      "delta.equivalence_checks", "Equivalence-harness runs");
  obs::Counter& equivalence_failures = *registry_.GetCounter(
      "delta.equivalence_failures",
      "Equivalence-harness divergences beyond epsilon");
  obs::Gauge& working_sets = *registry_.GetGauge(
      "delta.working_sets", "Alive candidate sets in the working set");
  obs::Gauge& components_total = *registry_.GetGauge(
      "delta.components_total",
      "Intersection-graph components over the working set");
  obs::Gauge& last_dirty_components = *registry_.GetGauge(
      "delta.last_dirty_components",
      "Dirty components in the most recent batch");
  obs::Histogram& impact_us = *registry_.GetHistogram(
      "delta.impact_us", "Impact analysis (components + dirty frontier)",
      "us");
  obs::Histogram& component_build_us = *registry_.GetHistogram(
      "delta.component_build_us",
      "Per-component local re-resolution (conflicts + MIS + build)", "us");
  obs::Histogram& splice_us = *registry_.GetHistogram(
      "delta.splice_us",
      "Splice: graft components + universe-wide misc category", "us");
  obs::Histogram& apply_us = *registry_.GetHistogram(
      "delta.apply_us", "End-to-end ApplyBatch latency", "us");
};

}  // namespace delta
}  // namespace oct

#endif  // OCT_DELTA_DELTA_STATS_H_
