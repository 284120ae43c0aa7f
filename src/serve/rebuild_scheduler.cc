#include "serve/rebuild_scheduler.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "core/scoring.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace serve {

namespace {

/// Gate discards and deadline hits are normal operation; only real errors
/// (injected faults, structural failures) trip retries and the breaker.
bool IsFailure(const Status& status) {
  return !status.ok() && status.code() != StatusCode::kDeadlineExceeded;
}

}  // namespace

const char* BatchDecisionName(BatchDecision decision) {
  switch (decision) {
    case BatchDecision::kUpToDate:
      return "up-to-date";
    case BatchDecision::kScheduled:
      return "scheduled";
    case BatchDecision::kAlreadyRebuilding:
      return "already-rebuilding";
    case BatchDecision::kBootstrap:
      return "bootstrap";
    case BatchDecision::kCoalesced:
      return "coalesced";
    case BatchDecision::kCircuitOpen:
      return "circuit-open";
  }
  return "?";
}

const char* CircuitStateName(CircuitState state) {
  switch (state) {
    case CircuitState::kClosed:
      return "closed";
    case CircuitState::kOpen:
      return "open";
    case CircuitState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

RebuildScheduler::RebuildScheduler(TreeStore* store, ServeStats* stats,
                                   const data::Dataset* dataset,
                                   Similarity sim, RebuildPolicy policy,
                                   ThreadPool* pool)
    : store_(store),
      stats_(stats),
      dataset_(dataset),
      sim_(sim),
      policy_(policy),
      pool_(pool != nullptr ? pool : DefaultThreadPool()),
      backoff_rng_(policy.backoff_seed) {
  OCT_CHECK(store_ != nullptr);
  OCT_CHECK(stats_ != nullptr);
  OCT_CHECK(dataset_ != nullptr);
}

RebuildScheduler::~RebuildScheduler() { WaitForRebuild(); }

BatchDecision RebuildScheduler::OfferBatch(OctInput batch) {
  OCT_SPAN("serve/drift_probe");
  const auto snap = store_->Current();
  double current_score = 0.0;
  if (snap != nullptr) {
    // Scoring the served tree under the fresh batch is the cheap drift
    // probe (one ScoreTree pass); a full rebuild only happens when it says
    // the tree has gone stale.
    current_score =
        ScoreTree(batch, snap->tree(), sim_, nullptr).normalized;
    std::lock_guard<std::mutex> lock(mu_);
    if (published_score_ <= 0.0) {
      // Tree was published outside this scheduler (bootstrap import):
      // adopt its observed score as the drift baseline.
      published_score_ = current_score;
      return BatchDecision::kUpToDate;
    }
    if (current_score >= published_score_ - policy_.drift_tolerance) {
      return BatchDecision::kUpToDate;
    }
  }

  {
    // Claim the rebuild slot and (on failure) store the pending batch in
    // one critical section: the slot is released under the same mutex, so
    // a batch can never strand in the pending slot with the slot free.
    std::lock_guard<std::mutex> lock(mu_);
    if (!BreakerAdmitsLocked()) {
      stats_->batches_rejected.Increment();
      return BatchDecision::kCircuitOpen;
    }
    bool expected = false;
    if (!in_flight_.compare_exchange_strong(expected, true)) {
      // A rebuild is running: fold this batch into the pending-latest slot
      // (latest wins) instead of dropping it. FinishRebuild re-offers it.
      pending_batch_ = std::make_shared<OctInput>(std::move(batch));
      stats_->batches_coalesced.Increment();
      return BatchDecision::kCoalesced;
    }
  }
  stats_->rebuilds_triggered.Increment();
  auto shared_batch = std::make_shared<OctInput>(std::move(batch));
  pool_->Submit([this, shared_batch, current_score] {
    FinishRebuild(RunRebuild(*shared_batch, current_score));
  });
  return snap == nullptr ? BatchDecision::kBootstrap
                         : BatchDecision::kScheduled;
}

RebuildOutcome RebuildScheduler::RebuildNow(const OctInput& batch) {
  // Claim the single rebuild slot, waiting out any background rebuild so
  // two candidates never race to publish.
  for (;;) {
    WaitForRebuild();
    bool expected = false;
    if (in_flight_.compare_exchange_strong(expected, true)) break;
  }
  stats_->rebuilds_triggered.Increment();
  const auto snap = store_->Current();
  const double current_score =
      snap == nullptr
          ? 0.0
          : ScoreTree(batch, snap->tree(), sim_, nullptr).normalized;
  RebuildOutcome outcome = RunRebuild(batch, current_score);
  FinishRebuild(outcome);
  return outcome;
}

RebuildOutcome RebuildScheduler::RunRebuild(const OctInput& batch,
                                            double current_score) {
  OCT_SPAN("serve/rebuild");
  RebuildOutcome outcome;
  Timer timer;
  const int max_attempts = 1 + std::max(0, policy_.max_retries);
  double backoff = policy_.backoff_initial_seconds;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    outcome = RebuildOutcome();  // Each attempt reports from scratch.
    outcome.attempts = attempt;
    outcome.status = AttemptRebuild(batch, current_score, &outcome);
    if (!IsFailure(outcome.status)) break;
    if (attempt == max_attempts) break;
    stats_->rebuild_retries.Increment();
    double jitter = 1.0;
    if (policy_.backoff_jitter > 0.0) {
      std::lock_guard<std::mutex> lock(mu_);
      jitter = 1.0 + policy_.backoff_jitter *
                         (2.0 * backoff_rng_.NextDouble() - 1.0);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(backoff * jitter));
    backoff = std::min(backoff * 2.0, policy_.backoff_max_seconds);
  }
  outcome.seconds = timer.ElapsedSeconds();
  (outcome.published ? stats_->rebuilds_published : stats_->rebuilds_discarded)
      .Increment();
  stats_->rebuild_us.Record(outcome.seconds * 1e6);
  return outcome;
}

Status RebuildScheduler::AttemptRebuild(const OctInput& batch,
                                        double current_score,
                                        RebuildOutcome* outcome) {
  outcome->current_score = current_score;
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("serve.rebuild"));

  fault::CancelToken deadline;
  const fault::CancelToken* cancel = nullptr;
  if (policy_.rebuild_deadline_seconds > 0.0) {
    deadline =
        fault::CancelToken::WithDeadline(policy_.rebuild_deadline_seconds);
    cancel = &deadline;
  }

  // Build errors (injected ctcr.build / cct.build / delta.* faults) fail
  // the attempt; a deadline hit on the batch path yields a valid
  // best-so-far tree that still runs the gates below.
  Status build_status;
  CategoryTree candidate;
  std::string note =
      std::string("rebuild:") + eval::AlgorithmName(policy_.algorithm);
  if (policy_.builder != nullptr) {
    // Pluggable path (oct::delta): the builder produces the candidate; the
    // gates and publish below stay with the scheduler.
    Result<CandidateBuilder::Candidate> built =
        policy_.builder->BuildCandidate(batch, cancel);
    if (!built.ok()) return built.status();
    CandidateBuilder::Candidate produced = std::move(built).value();
    candidate = std::move(produced.tree);
    if (!produced.note.empty()) note = std::move(produced.note);
  } else {
    // Reuse the eval harness: same build path the figure benches exercise.
    candidate = eval::BuildTree(policy_.algorithm, *dataset_, batch, sim_,
                                cancel, &build_status);
    if (IsFailure(build_status)) return build_status;
  }
  outcome->candidate_score =
      ScoreTree(batch, candidate, sim_, nullptr).normalized;

  const auto served = store_->Current();
  if (outcome->candidate_score < current_score + policy_.min_publish_gain) {
    outcome->reason = "candidate does not beat served tree";
  } else {
    // The conservative-update gate compares against the served tree, so it
    // only applies once something is being served.
    bool conservative_enough = true;
    if (served != nullptr && policy_.min_item_stability > 0.0) {
      outcome->item_stability =
          CompareTrees(served->tree(), candidate).ItemStability();
      conservative_enough =
          outcome->item_stability >= policy_.min_item_stability;
    }
    if (!conservative_enough) {
      outcome->reason = "update not conservative enough";
    } else {
      OCT_RETURN_NOT_OK(OCT_FAILPOINT("serve.publish"));
      const auto published = store_->Publish(std::move(candidate), note);
      outcome->published = true;
      outcome->published_version = published->version();
      outcome->reason = "published";
      stats_->publishes.Increment();
      stats_->current_version.Set(static_cast<int64_t>(published->version()));
    }
  }
  return build_status;
}

void RebuildScheduler::FinishRebuild(RebuildOutcome outcome) {
  // Every rebuild completion beats, success or failure: a scheduler that
  // stops finishing rebuilds while batches queue is what "stalled" means.
  obs::WatchdogBeat("serve.scheduler");
  std::shared_ptr<OctInput> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    UpdateBreakerLocked(outcome);
    if (outcome.published) published_score_ = outcome.candidate_score;
    last_outcome_ = std::move(outcome);
    if (pending_batch_ == nullptr || breaker_ == CircuitState::kOpen) {
      pending_batch_.reset();  // An open breaker sheds queued work too.
      in_flight_.store(false, std::memory_order_release);
      // Notify under the lock: ~RebuildScheduler runs WaitForRebuild and
      // then destroys cv_done_, so the notifier must be done with the
      // condvar before any waiter can observe in_flight_ == false and
      // proceed to destruction.
      cv_done_.notify_all();
      return;
    }
    // A batch coalesced while we were rebuilding: keep the slot claimed
    // and chain it, so WaitForRebuild covers the whole chain.
    next = std::move(pending_batch_);
  }
  pool_->Submit([this, next] { RunPendingBatch(next); });
}

void RebuildScheduler::RunPendingBatch(std::shared_ptr<OctInput> batch) {
  OCT_SPAN("serve/pending_probe");
  // Re-probe drift: the rebuild that just published may already serve this
  // batch well, in which case the queued work evaporates.
  const auto snap = store_->Current();
  double current_score = 0.0;
  if (snap != nullptr) {
    current_score =
        ScoreTree(*batch, snap->tree(), sim_, nullptr).normalized;
    bool fresh;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fresh = published_score_ > 0.0 &&
              current_score >= published_score_ - policy_.drift_tolerance;
    }
    if (fresh) {
      ReleaseSlotOrChain();
      return;
    }
  }
  stats_->rebuilds_triggered.Increment();
  FinishRebuild(RunRebuild(*batch, current_score));
}

void RebuildScheduler::ReleaseSlotOrChain() {
  std::shared_ptr<OctInput> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_batch_ == nullptr || breaker_ == CircuitState::kOpen) {
      pending_batch_.reset();
      in_flight_.store(false, std::memory_order_release);
      cv_done_.notify_all();
      return;
    }
    next = std::move(pending_batch_);
  }
  pool_->Submit([this, next] { RunPendingBatch(next); });
}

void RebuildScheduler::UpdateBreakerLocked(const RebuildOutcome& outcome) {
  if (policy_.breaker_failure_threshold <= 0) return;
  if (IsFailure(outcome.status)) {
    ++consecutive_failures_;
    const bool trip =
        breaker_ == CircuitState::kHalfOpen ||
        (breaker_ == CircuitState::kClosed &&
         consecutive_failures_ >= policy_.breaker_failure_threshold);
    if (trip) {
      breaker_ = CircuitState::kOpen;
      breaker_opened_at_ = std::chrono::steady_clock::now();
      stats_->breaker_opened.Increment();
      stats_->breaker_state.Set(static_cast<int64_t>(breaker_));
      OCT_LOG_WARNING << "rebuild circuit breaker opened after "
                      << consecutive_failures_ << " consecutive failures: "
                      << outcome.status.ToString();
    }
    return;
  }
  consecutive_failures_ = 0;
  if (breaker_ != CircuitState::kClosed) {
    breaker_ = CircuitState::kClosed;
    stats_->breaker_closed.Increment();
    stats_->breaker_state.Set(static_cast<int64_t>(breaker_));
    OCT_LOG_INFO << "rebuild circuit breaker closed";
  }
}

bool RebuildScheduler::BreakerAdmitsLocked() {
  if (breaker_ != CircuitState::kOpen) return true;
  const auto cooldown = std::chrono::duration<double>(
      policy_.breaker_cooldown_seconds);
  if (std::chrono::steady_clock::now() - breaker_opened_at_ < cooldown) {
    return false;
  }
  breaker_ = CircuitState::kHalfOpen;
  stats_->breaker_state.Set(static_cast<int64_t>(breaker_));
  return true;
}

void RebuildScheduler::WaitForRebuild() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock,
                [this] { return !in_flight_.load(std::memory_order_acquire); });
}

RebuildOutcome RebuildScheduler::last_outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_outcome_;
}

double RebuildScheduler::published_score() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_score_;
}

CircuitState RebuildScheduler::circuit_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_;
}

int RebuildScheduler::consecutive_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_;
}

}  // namespace serve
}  // namespace oct
