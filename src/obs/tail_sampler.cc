#include "obs/tail_sampler.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace oct {
namespace obs {

namespace {

std::atomic<TailSampler*> g_tail_sampler{nullptr};

Counter* StartedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_started", "Request traces opened by the tail sampler");
  return c;
}
Counter* PromotedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_promoted",
      "Traces retained because they finished slow, shed, degraded, or "
      "errored");
  return c;
}
Counter* DiscardedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_discarded",
      "Traces dropped at completion because nothing went wrong");
  return c;
}
Counter* EvictedCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.tail.traces_evicted",
      "Pending traces evicted before completion (shard bound hit)");
  return c;
}

}  // namespace

TailSampler::TailSampler(TailSamplerOptions options)
    : options_(std::move(options)), shards_(kShards) {}

void TailSampler::StartTrace(uint64_t trace_id) {
  if (trace_id == 0) return;
  started_.fetch_add(1, std::memory_order_relaxed);
  StartedCounter()->Increment();
  Shard& shard = ShardFor(trace_id);
  uint64_t evicted_now = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.pending.try_emplace(trace_id);
    if (!inserted) return;  // Already open (double-start); keep existing.
    shard.fifo.push_back(trace_id);
    while (shard.pending.size() > options_.max_pending_per_shard &&
           !shard.fifo.empty()) {
      const uint64_t oldest = shard.fifo.front();
      shard.fifo.pop_front();
      if (shard.pending.erase(oldest) != 0) ++evicted_now;
    }
  }
  if (evicted_now != 0) {
    evicted_.fetch_add(evicted_now, std::memory_order_relaxed);
    EvictedCounter()->Increment(evicted_now);
  }
}

void TailSampler::Record(const SpanEvent& event) {
  if (event.trace_id == 0) return;
  Shard& shard = ShardFor(event.trace_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.pending.find(event.trace_id);
  if (it == shard.pending.end()) return;  // Evicted or never started.
  if (it->second.spans.size() >= options_.max_spans_per_trace) {
    ++it->second.dropped_spans;
    return;
  }
  it->second.spans.push_back(event);
}

bool TailSampler::FinishTrace(uint64_t trace_id, const TraceFinish& fin) {
  if (trace_id == 0) return false;
  PendingTrace trace;
  bool found = false;
  {
    Shard& shard = ShardFor(trace_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.pending.find(trace_id);
    if (it != shard.pending.end()) {
      trace = std::move(it->second);
      shard.pending.erase(it);
      found = true;
      // The fifo entry goes stale; eviction skips ids already erased.
    }
  }
  if (!WouldPromote(fin)) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    DiscardedCounter()->Increment();
    return false;
  }
  promoted_.fetch_add(1, std::memory_order_relaxed);
  PromotedCounter()->Increment();

  // Promote spans into the retention ring feeding /tracez. A shed request
  // may legitimately have no spans (rejected at admission); the slow-log
  // entry still records it.
  if (found && !trace.spans.empty()) {
    SpanRing* ring = options_.ring != nullptr ? options_.ring
                                              : SpanRing::Global();
    if (ring != nullptr) {
      for (const SpanEvent& e : trace.spans) ring->Add(e);
    }
  }

  SlowLog* log =
      options_.slow_log != nullptr ? options_.slow_log : SlowLog::Global();
  if (log != nullptr) {
    SlowRequestEntry entry;
    entry.trace_id = trace_id;
    entry.query = fin.query;
    entry.version = fin.version;
    entry.total_us = fin.total_us;
    entry.resolve_us = fin.resolve_us;
    entry.score_us = fin.score_us;
    entry.serialize_us = fin.serialize_us;
    entry.shed = fin.shed;
    entry.degraded = fin.degraded;
    entry.errored = fin.errored;
    entry.end_ns = TraceNowNanos();
    // Worst condition labels the entry.
    if (fin.errored) {
      entry.reason = TailReason::kError;
    } else if (fin.shed) {
      entry.reason = TailReason::kShed;
    } else if (fin.degraded) {
      entry.reason = TailReason::kDegraded;
    } else {
      entry.reason = TailReason::kSlow;
    }
    log->Add(std::move(entry));
  }
  return true;
}

void TailSampler::InstallGlobal(TailSampler* sampler) {
  g_tail_sampler.store(sampler, std::memory_order_release);
}

TailSampler* TailSampler::Global() {
  return g_tail_sampler.load(std::memory_order_acquire);
}

TraceContext StartRequestTrace() {
  TraceContext ctx;
  ctx.trace_id = internal::NextTraceId();
  ctx.span_id = 0;
  TailSampler* sampler = TailSampler::Global();
  ctx.sampled = sampler != nullptr;
  if (sampler != nullptr) sampler->StartTrace(ctx.trace_id);
  return ctx;
}

bool FinishRequestTrace(const TraceContext& ctx, const TraceFinish& fin) {
  if (!ctx.valid()) return false;
  TailSampler* sampler = TailSampler::Global();
  if (sampler == nullptr) return false;
  return sampler->FinishTrace(ctx.trace_id, fin);
}

}  // namespace obs
}  // namespace oct
