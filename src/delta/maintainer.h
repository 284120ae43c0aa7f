// DeltaMaintainer: the serve-layer face of oct::delta. It owns the
// ingestion log, the incremental builder, and the publish path:
//
//   traffic threads --> DeltaLog (coalescing, thread-safe)
//                          |
//                 PumpOnce (maintainer thread)
//                          |
//        DeltaBuilder::ApplyBatch  -- dirty frontier only
//                          |
//           TreeStore::Publish("delta:<dirty>/<total>")
//                          |
//                readers (snapshot flip, never blocked)
//
// Two ways to drive it:
//   - Direct: producers call UpsertQuery/RemoveQuery/RemoveItem, something
//     periodically calls PumpOnce. This is the online_store / bench /
//     chaos loop.
//   - Scheduler hook: the maintainer is a serve::CandidateBuilder, so a
//     RebuildScheduler with policy.builder = &maintainer routes its
//     drift-triggered rebuilds through the delta path — BuildCandidate
//     diffs the offered batch against the cumulative working set and
//     re-resolves only what changed; gates and publish stay with the
//     scheduler.
//
// Thread-safety: the log is safe for concurrent producers; apply/publish
// serialize on an internal mutex (PumpOnce, Republish, FullRebuild, and
// BuildCandidate may be called from different threads, one at a time).

#ifndef OCT_DELTA_MAINTAINER_H_
#define OCT_DELTA_MAINTAINER_H_

#include <mutex>
#include <string>

#include "core/input.h"
#include "core/similarity.h"
#include "delta/delta_builder.h"
#include "delta/delta_log.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/status.h"

namespace oct {
namespace delta {

struct DeltaMaintainerOptions {
  DeltaBuilderOptions builder;
  /// When > 0, every spliced tree is audited by the equivalence harness
  /// (DeltaBuilder::VerifyEquivalence) with this epsilon before publish;
  /// a divergence fails the pump and nothing is published. Expensive
  /// (fresh rebuild + plain build per pump) — for tests and canaries.
  double verify_epsilon = 0.0;
  /// Max ops drained per PumpOnce (0 = drain everything pending).
  size_t max_batch_ops = 0;
};

class DeltaMaintainer : public serve::CandidateBuilder {
 public:
  /// `store` must outlive the maintainer. `serve_stats` may be null (delta
  /// publishes then don't show up in serve.* metrics).
  DeltaMaintainer(serve::TreeStore* store, serve::ServeStats* serve_stats,
                  Similarity sim, DeltaMaintainerOptions options = {});

  DeltaMaintainer(const DeltaMaintainer&) = delete;
  DeltaMaintainer& operator=(const DeltaMaintainer&) = delete;

  // --- Ingestion (thread-safe, non-blocking w.r.t. rebuilds) ---
  void UpsertQuery(const std::string& label, CandidateSet set) {
    log_.UpsertQuery(DeltaLog::KeyForLabel(label), std::move(set));
  }
  void RemoveQuery(const std::string& label) {
    log_.RemoveQuery(DeltaLog::KeyForLabel(label));
  }
  void RemoveItem(ItemId item) { log_.RemoveItem(item); }
  DeltaLog& log() { return log_; }

  /// Drains pending ops, applies them incrementally, and publishes the
  /// spliced tree with note "delta:<dirty>/<total>" (or "delta-full:..."
  /// after a drift-bound fallback). Returns the published version, or 0
  /// when nothing was pending. On error the drained ops are already in the
  /// working set; Republish() (or the next pump) recovers.
  Result<serve::TreeVersion> PumpOnce();

  /// Re-splices and republishes the current cumulative state without
  /// draining ops — the recovery path after a failed pump (clean
  /// components come straight from the cache, so this is cheap).
  Result<serve::TreeVersion> Republish();

  /// Full rebuild (every component fresh) + publish. Bootstrap and manual
  /// fallback.
  Result<serve::TreeVersion> PublishFullRebuild();

  /// serve::CandidateBuilder: diffs `batch` (the scheduler's cumulative
  /// query-log truth) against the working set and runs the delta path on
  /// the difference. The scheduler keeps gates + publish. `cancel` is
  /// ignored — the delta path is bounded by the dirty frontier instead.
  Result<Candidate> BuildCandidate(const OctInput& batch,
                                   const fault::CancelToken* cancel) override;

  const DeltaStats& stats() const { return builder_.stats(); }
  const DeltaBuilder& builder() const { return builder_; }

  /// Outcome of the last successful apply (its `tree` is empty — it was
  /// moved into the published snapshot).
  DeltaApplyOutcome last_outcome() const;

 private:
  /// Publishes `outcome`'s tree and records it. Callers hold mu_.
  Result<serve::TreeVersion> PublishOutcomeLocked(DeltaApplyOutcome outcome);
  /// "delta:<dirty>/<total>" or "delta-full:<total>".
  static std::string NoteFor(const DeltaApplyOutcome& outcome);

  serve::TreeStore* const store_;
  serve::ServeStats* const serve_stats_;
  const DeltaMaintainerOptions options_;
  DeltaLog log_;
  mutable std::mutex mu_;  // Serializes apply/publish; guards the below.
  DeltaBuilder builder_;
  DeltaApplyOutcome last_outcome_;
};

}  // namespace delta
}  // namespace oct

#endif  // OCT_DELTA_MAINTAINER_H_
