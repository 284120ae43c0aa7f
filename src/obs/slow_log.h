// SlowLog: bounded retention ring of the requests the tail sampler decided
// were worth keeping — slow (past the latency threshold), shed, degraded,
// or errored. Each entry carries what an operator needs to act on a bad
// request without replaying it: the query text, the tree version it was
// scored against, its trace id (linking to /tracez?trace_id=), and the
// per-stage latency breakdown (resolve / score / serialize, microseconds).
//
// Promotion is rare by construction (the whole point of tail sampling), so
// a single mutex suffices; the recording hot path never touches this —
// only TailSampler::FinishTrace does, and only on promotion.

#ifndef OCT_OBS_SLOW_LOG_H_
#define OCT_OBS_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace oct {
namespace obs {

/// Why a finished trace was promoted. Ordered by severity: when several
/// apply, the worst one labels the entry.
enum class TailReason : uint8_t { kSlow, kDegraded, kShed, kError };

const char* TailReasonName(TailReason reason);

/// One retained bad request.
struct SlowRequestEntry {
  uint64_t trace_id = 0;
  std::string query;
  uint64_t version = 0;  // Tree version scored against (0 = never scored).
  TailReason reason = TailReason::kSlow;
  double total_us = 0.0;
  /// Per-stage breakdown (microseconds). Stages a request never reached
  /// stay 0.
  double resolve_us = 0.0;   // Result-set resolution (index probe).
  double score_us = 0.0;     // Category scoring + ranking.
  double serialize_us = 0.0; // Response rendering (HTTP ingress only).
  bool shed = false;
  bool degraded = false;
  bool errored = false;
  uint64_t end_ns = 0;  // TraceNowNanos() when the request finished.
};

class SlowLog {
 public:
  explicit SlowLog(size_t capacity = 256);

  SlowLog(const SlowLog&) = delete;
  SlowLog& operator=(const SlowLog&) = delete;

  /// Appends one promoted request, overwriting the oldest when full.
  void Add(SlowRequestEntry entry);

  /// Most recent entries (newest first), at most `max_entries`.
  std::vector<SlowRequestEntry> Latest(size_t max_entries) const;

  uint64_t total_added() const {
    return total_added_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

  /// Installs `log` (nullptr to uninstall) as the process-wide sink the
  /// tail sampler promotes into. Caller owns lifetime.
  static void InstallGlobal(SlowLog* log);
  static SlowLog* Global();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SlowRequestEntry> entries_;  // Ring storage, size <= capacity.
  size_t next_ = 0;                        // Overwrite cursor once full.
  std::atomic<uint64_t> total_added_{0};
};

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_SLOW_LOG_H_
