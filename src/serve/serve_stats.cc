#include "serve/serve_stats.h"

#include <cstdio>

namespace oct {
namespace serve {

std::string ServeStatsSnapshot::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "version=%llu item_lookups=%llu hit_rate=%.3f label_lookups=%llu "
      "publishes=%llu rollbacks=%llu rebuilds=%llu (published=%llu "
      "discarded=%llu) rebuild_seconds=%.3f",
      static_cast<unsigned long long>(current_version),
      static_cast<unsigned long long>(item_lookups), ItemHitRate(),
      static_cast<unsigned long long>(label_lookups),
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(rollbacks),
      static_cast<unsigned long long>(rebuilds_triggered),
      static_cast<unsigned long long>(rebuilds_published),
      static_cast<unsigned long long>(rebuilds_discarded), RebuildSeconds());
  return buf;
}

ServeStats::ServeStats()
    : item_lookups_(registry_.GetCounter("serve.item_lookups")),
      item_hits_(registry_.GetCounter("serve.item_hits")),
      label_lookups_(registry_.GetCounter("serve.label_lookups")),
      label_hits_(registry_.GetCounter("serve.label_hits")),
      publishes_(registry_.GetCounter("serve.publishes")),
      rollbacks_(registry_.GetCounter("serve.rollbacks")),
      rebuilds_triggered_(registry_.GetCounter("serve.rebuilds_triggered")),
      rebuilds_published_(registry_.GetCounter("serve.rebuilds_published")),
      rebuilds_discarded_(registry_.GetCounter("serve.rebuilds_discarded")),
      rebuild_retries_(registry_.GetCounter("serve.rebuild_retries")),
      batches_coalesced_(registry_.GetCounter("serve.batches_coalesced")),
      batches_rejected_(registry_.GetCounter("serve.batches_rejected")),
      breaker_opened_(registry_.GetCounter("serve.breaker_opened")),
      breaker_closed_(registry_.GetCounter("serve.breaker_closed")),
      rebuild_micros_(registry_.GetCounter("serve.rebuild_micros")),
      current_version_(registry_.GetGauge("serve.current_version")),
      breaker_state_(registry_.GetGauge("serve.breaker_state")),
      rebuild_us_(registry_.GetHistogram("serve.rebuild_us")) {}

void ServeStats::RecordRebuildFinished(bool published, double seconds) {
  if (published) {
    rebuilds_published_->Increment();
  } else {
    rebuilds_discarded_->Increment();
  }
  const uint64_t micros = static_cast<uint64_t>(seconds * 1e6);
  rebuild_micros_->Increment(micros);
  rebuild_us_->Record(static_cast<double>(micros));
}

ServeStatsSnapshot ServeStats::Snapshot() const {
  ServeStatsSnapshot s;
  s.item_lookups = item_lookups_->Value();
  s.item_hits = item_hits_->Value();
  s.label_lookups = label_lookups_->Value();
  s.label_hits = label_hits_->Value();
  s.publishes = publishes_->Value();
  s.rollbacks = rollbacks_->Value();
  s.rebuilds_triggered = rebuilds_triggered_->Value();
  s.rebuilds_published = rebuilds_published_->Value();
  s.rebuilds_discarded = rebuilds_discarded_->Value();
  s.rebuild_retries = rebuild_retries_->Value();
  s.batches_coalesced = batches_coalesced_->Value();
  s.batches_rejected = batches_rejected_->Value();
  s.breaker_opened = breaker_opened_->Value();
  s.breaker_closed = breaker_closed_->Value();
  s.breaker_state = static_cast<uint64_t>(breaker_state_->Value());
  s.rebuild_micros = rebuild_micros_->Value();
  s.current_version = static_cast<uint64_t>(current_version_->Value());
  return s;
}

}  // namespace serve
}  // namespace oct
