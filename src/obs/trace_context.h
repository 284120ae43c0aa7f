// TraceContext: the per-request identity that turns thread-local spans into
// one cross-thread tree. A context is created at request ingress (the
// /route handler, or Router::Route when a request arrives without one),
// carried *explicitly* across every async boundary — delta/store publish
// pumps, ThreadPool tasks — and installed on whichever thread does the work
// via TraceContextScope.
// Every span finished while a context is installed carries the context's
// trace_id plus an explicit span_id/parent_id pair, so /tracez?trace_id=
// reassembles the request's full tree no matter how many threads it
// crossed.
//
//   // ingress
//   obs::TraceContext ctx = obs::StartRequestTrace();
//   obs::TraceContextScope scope(ctx);      // install on this thread
//   ...
//   // handoff: capture obs::CurrentTraceContext() into the queue item,
//   // re-install with TraceContextScope on the worker.
//
// The context also carries the sampling decision (tail_sampler.h): sampled
// requests record their spans into the pending buffer until the request
// finishes and the tail verdict (slow/shed/degraded/errored?) decides
// whether the trace is retained or discarded.
//
// Cost contract: propagation is one TLS copy per handoff and one TLS
// read + branch per span site — cheap enough to leave always-on in the
// route hot path (the router bench gates this at <= 3% of route latency).

#ifndef OCT_OBS_TRACE_CONTEXT_H_
#define OCT_OBS_TRACE_CONTEXT_H_

#include <cstdint>
#include <string>

namespace oct {
namespace obs {

/// The propagated per-request context. POD by design: cheap to copy into
/// queue items and task closures. `span_id` is the id of the innermost
/// open span on the *installing* thread — the parent new spans attach to.
struct TraceContext {
  /// 0 = no request trace (spans still get ids, parented per thread).
  uint64_t trace_id = 0;
  /// Current parent: the span new child spans attach under.
  uint64_t span_id = 0;
  /// Tail-sampling decision: record spans into the pending buffer.
  bool sampled = false;

  bool valid() const { return trace_id != 0; }
};

namespace internal {
/// The calling thread's installed context. Direct TLS so the span fast
/// path pays one thread-local address computation, not a function call.
extern thread_local TraceContext g_trace_context;

/// Fresh process-unique span id (never 0).
uint64_t NextSpanId();

/// Fresh process-unique trace id (never 0; bit-mixed so ids from the same
/// process don't collide into adjacent /tracez filters).
uint64_t NextTraceId();
}  // namespace internal

/// The context installed on the calling thread ({} when none).
inline const TraceContext& CurrentTraceContext() {
  return internal::g_trace_context;
}

/// Installs `ctx` on the calling thread for the scope's lifetime and
/// restores the previous context (including its parent-span register) on
/// exit. Use at every async boundary where work continues on this thread
/// on behalf of a request started elsewhere.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx)
      : saved_(internal::g_trace_context) {
    internal::g_trace_context = ctx;
  }
  ~TraceContextScope() { internal::g_trace_context = saved_; }

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// Lower-case hex rendering of a trace id — the exchange format shared by
/// /tracez?trace_id=, /slowz, and OpenMetrics exemplars.
std::string TraceIdToHex(uint64_t trace_id);

/// Parses TraceIdToHex output (with or without a 0x prefix); 0 on garbage.
uint64_t TraceIdFromHex(const std::string& hex);

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_TRACE_CONTEXT_H_
