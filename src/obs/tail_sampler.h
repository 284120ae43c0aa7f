// TailSampler: tail-based trace retention. Head-based sampling decides at
// ingress — and misses exactly the requests an operator cares about,
// because the decision predates knowing the request went bad. Tail-based
// sampling records *every* request's spans into a lock-sharded pending
// buffer and decides at completion: traces that finished slow (past a
// configurable latency threshold), shed, degraded, or errored are promoted
// into the SpanRing (feeding /tracez) plus the SlowLog (/slowz); everything
// else is discarded in O(spans) with no further cost.
//
//   TailSampler sampler(opts);
//   TailSampler::InstallGlobal(&sampler);
//   ...
//   obs::TraceContext ctx = obs::StartRequestTrace();
//   { obs::TraceContextScope scope(ctx);  /* spans record pending */ }
//   obs::TraceFinish fin; fin.total_us = ...; fin.shed = ...;
//   obs::FinishRequestTrace(ctx, fin);    // promote or discard
//
// Sharding: pending traces hash by trace id over kShards cacheline-aligned
// shards, so concurrent workers finishing different requests almost never
// contend. Each shard bounds its pending count (the trace opened first is
// evicted, counted in obs.tail.traces_evicted) so a caller that forgets
// FinishRequestTrace cannot leak unbounded memory. A finished trace leaves
// nothing behind in its shard.

#ifndef OCT_OBS_TAIL_SAMPLER_H_
#define OCT_OBS_TAIL_SAMPLER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/slow_log.h"
#include "obs/span_ring.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace oct {
namespace obs {

struct TailSamplerOptions {
  /// Traces slower than this promote even when nothing else went wrong.
  double slow_threshold_us = 5000.0;
  /// Pending traces per shard before the oldest is evicted (total bound =
  /// kShards * this).
  size_t max_pending_per_shard = 128;
  /// Spans retained per pending trace; later spans are dropped and counted.
  size_t max_spans_per_trace = 64;
  /// Promotion sinks. nullptr = resolve SpanRing::Global() /
  /// SlowLog::Global() at promotion time.
  SpanRing* ring = nullptr;
  SlowLog* slow_log = nullptr;
};

/// Everything the verdict needs, supplied by whoever finishes the request.
/// The sampler owns the promote/discard decision; callers just report what
/// happened.
struct TraceFinish {
  double total_us = 0.0;
  bool shed = false;
  bool degraded = false;
  bool errored = false;
  /// Slow-log payload (ignored when the trace is discarded).
  std::string query;
  uint64_t version = 0;
  double resolve_us = 0.0;
  double score_us = 0.0;
  double serialize_us = 0.0;
};

class TailSampler {
 public:
  explicit TailSampler(TailSamplerOptions options = {});

  TailSampler(const TailSampler&) = delete;
  TailSampler& operator=(const TailSampler&) = delete;

  /// Opens a pending trace for `trace_id`. Called by StartRequestTrace.
  void StartTrace(uint64_t trace_id);

  /// Appends one finished span to its pending trace (no-op if the trace
  /// was never started or already evicted). Called from SpanEnd.
  void Record(const SpanEvent& event);

  /// Closes the trace: promotes its spans into the ring + an entry into
  /// the slow log when the verdict says slow/shed/degraded/errored,
  /// discards them otherwise. Returns true when promoted.
  bool FinishTrace(uint64_t trace_id, const TraceFinish& fin);

  /// Would a finish with these flags promote? (The verdict predicate,
  /// exposed for tests and for callers that want to pre-filter.)
  bool WouldPromote(const TraceFinish& fin) const {
    return fin.shed || fin.degraded || fin.errored ||
           fin.total_us > options_.slow_threshold_us;
  }

  const TailSamplerOptions& options() const { return options_; }

  uint64_t traces_started() const {
    return started_.load(std::memory_order_relaxed);
  }
  uint64_t traces_promoted() const {
    return promoted_.load(std::memory_order_relaxed);
  }
  uint64_t traces_discarded() const {
    return discarded_.load(std::memory_order_relaxed);
  }
  uint64_t traces_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  /// Installs `sampler` (nullptr to uninstall) as the process-wide pending
  /// sink SpanEnd feeds for sampled contexts. Caller owns lifetime.
  static void InstallGlobal(TailSampler* sampler);
  static TailSampler* Global();

 private:
  struct PendingTrace {
    std::vector<SpanEvent> spans;
    uint64_t dropped_spans = 0;
    /// Its shard's `opened` count when it started: the smallest is evicted.
    uint64_t opened = 0;
  };
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, PendingTrace> pending;
    uint64_t opened = 0;  // Traces ever opened in this shard.
  };

  static constexpr size_t kShards = 8;

  Shard& ShardFor(uint64_t trace_id) {
    // Trace ids are splitmix-mixed; low bits are already well distributed.
    return shards_[trace_id & (kShards - 1)];
  }

  const TailSamplerOptions options_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> promoted_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> evicted_{0};
};

/// Ingress helper: mints a TraceContext for a new request. When a global
/// TailSampler is installed the context is marked sampled and a pending
/// trace is opened; otherwise the context still carries a trace id (spans
/// tag it when tracing is enabled) but nothing is buffered.
TraceContext StartRequestTrace();

/// Completion helper: routes the verdict to the installed sampler (no-op
/// when none, or when `ctx` is invalid). Returns true when the trace was
/// promoted. Call exactly once per StartRequestTrace, from whichever
/// thread finishes the request.
bool FinishRequestTrace(const TraceContext& ctx, const TraceFinish& fin);

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_TAIL_SAMPLER_H_
