// Scoped trace spans: hierarchical wall-time per pipeline phase.
//
//   {
//     OCT_SPAN("ctcr/solve_mis");
//     ... phase body ...
//   }   // span recorded on scope exit
//
// When tracing is disabled (the default) and no sampled request context is
// installed, a span costs one relaxed atomic load, one TLS read, and a
// branch — safe to leave in hot paths. When active, finished spans are
// appended to a thread-local buffer (guarded by a per-thread mutex that is
// uncontended except during collection), so recording never synchronizes
// threads against each other. CollectSpans() drains every thread's buffer;
// export.h turns the result into a Chrome-trace file (chrome://tracing /
// Perfetto) or aggregated JSON.
//
// Parenting is explicit: every span gets a process-unique span_id and
// records the span_id of the innermost span open on its thread (or carried
// in by the installed TraceContext) as parent_id. Cross-thread request
// spans therefore parent correctly — nesting depth and thread id are kept
// as display hints only. Spans finished while a *sampled* TraceContext is
// installed route to the tail sampler's pending buffer instead (see
// tail_sampler.h); the tail verdict decides whether they are retained.
//
// Span names must be string literals (or otherwise outlive collection);
// events store the pointer, not a copy.

#ifndef OCT_OBS_TRACE_H_
#define OCT_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/trace_context.h"

namespace oct {
namespace obs {

/// One finished span. Times are nanoseconds since the process trace epoch
/// (steady clock). `depth` is the nesting level on its thread at entry
/// (outermost span = 0); `thread_id` is a small dense per-thread id.
/// `trace_id` is 0 for spans recorded outside any request context;
/// `parent_id` is 0 for roots.
struct SpanEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t depth = 0;
  uint32_t thread_id = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;

  double DurationMicros() const {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
};

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
/// Enters a span on the calling thread: bumps the nesting depth, assigns
/// the span's id, captures the current parent, points the thread's
/// parent-span register at the new span, and returns the start timestamp.
uint64_t SpanStart(uint64_t* span_id, uint64_t* parent_id);
/// Leaves the innermost span: restores the parent register and records the
/// event (to the tail sampler's pending buffer when a sampled context is
/// installed; to the span ring + collection buffers when `collect` — the
/// tracing-enabled state at span open — is set).
void SpanEnd(const char* name, uint64_t start_ns, uint64_t span_id,
             uint64_t parent_id, bool collect);
}  // namespace internal

/// Globally enables/disables span recording. Spans already open when the
/// flag flips still record on close. Independent of request sampling:
/// a sampled TraceContext records its spans even while this is off.
void SetTracingEnabled(bool enabled);

inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Nanoseconds since the process trace epoch (first obs use).
uint64_t TraceNowNanos();

/// Drains every thread's finished spans (plus those of exited threads),
/// sorted by start time. Spans still open are not included.
std::vector<SpanEvent> CollectSpans();

/// Discards all recorded spans.
void ClearSpans();

/// Records one already-timed span with an explicit parent: the span
/// carries the installed context's trace id (0 when none) and a fresh span
/// id, but attaches under `parent_id` rather than the thread's innermost
/// span. For spans timed outside any scope, e.g. perfbench's client-side
/// /route round trip joined to the server's trace after the fact.
void RecordLinkedSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                      uint64_t parent_id);

/// RAII span; use via OCT_SPAN. Inactive (and free beyond one relaxed load
/// plus one TLS read) when neither tracing nor a sampled request context is
/// active at construction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    const TraceContext& ctx = internal::g_trace_context;
    collect_ = TracingEnabled();
    if (collect_ || (ctx.sampled && ctx.trace_id != 0)) {
      name_ = name;
      start_ns_ = internal::SpanStart(&span_id_, &parent_id_);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      internal::SpanEnd(name_, start_ns_, span_id_, parent_id_, collect_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  bool collect_ = false;  // Tracing-enabled state at open; fixed for life.
};

}  // namespace obs
}  // namespace oct

#define OCT_OBS_CONCAT_INNER(a, b) a##b
#define OCT_OBS_CONCAT(a, b) OCT_OBS_CONCAT_INNER(a, b)

/// Opens a trace span covering the rest of the enclosing scope. `name` must
/// be a string literal ("module/phase" by convention).
#define OCT_SPAN(name) \
  ::oct::obs::ScopedSpan OCT_OBS_CONCAT(oct_scoped_span_, __LINE__)(name)

#endif  // OCT_OBS_TRACE_H_
