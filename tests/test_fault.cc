// Unit tests for the fault module and its integration points: failpoint
// spec parsing and arming, deterministic probabilistic injection,
// CancelToken deadlines, anytime (best-so-far) builds under cancellation,
// and the hardened RebuildScheduler (retries, circuit breaker, batch
// coalescing). Crash safety of the durable path lives in test_store.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cct/cct.h"
#include "crash_harness.h"
#include "ctcr/ctcr.h"
#include "data/datasets.h"
#include "fault/cancel.h"
#include "fault/failpoint.h"
#include "mis/solver.h"
#include "paper_inputs.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace oct {
namespace {

using fault::CancelToken;
using fault::FailAction;
using fault::FailPoint;
using fault::FailPointRegistry;
using fault::FailSpec;
using testing_inputs::Figure2Input;

/// Every test runs with a clean (disarmed) default registry so arming in
/// one test never leaks into another (or into unrelated suites).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPointRegistry::Default()->DisarmAll(); }
  void TearDown() override { FailPointRegistry::Default()->DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Spec parsing.

TEST_F(FaultTest, ParseActionErrorDefaults) {
  auto spec = FailPointRegistry::ParseAction("error");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->action, FailAction::kError);
  EXPECT_DOUBLE_EQ(spec->probability, 1.0);
  EXPECT_EQ(spec->error_code, StatusCode::kInternal);
  EXPECT_EQ(spec->max_triggers, -1);  // Unlimited.
}

TEST_F(FaultTest, ParseActionErrorWithProbabilityAndCap) {
  auto spec = FailPointRegistry::ParseAction("error:0.3");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->probability, 0.3);
  EXPECT_EQ(spec->max_triggers, -1);

  spec = FailPointRegistry::ParseAction("error:0.25:x2");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->probability, 0.25);
  EXPECT_EQ(spec->max_triggers, 2);

  // The cap can stand alone (probability stays 1).
  spec = FailPointRegistry::ParseAction("error:x3");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->probability, 1.0);
  EXPECT_EQ(spec->max_triggers, 3);
}

TEST_F(FaultTest, ParseActionDelayVariants) {
  auto spec = FailPointRegistry::ParseAction("delay:50ms");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->action, FailAction::kDelay);
  EXPECT_DOUBLE_EQ(spec->delay_ms, 50.0);

  spec = FailPointRegistry::ParseAction("delay:2.5");  // "ms" optional.
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->delay_ms, 2.5);

  spec = FailPointRegistry::ParseAction("delay:10ms:0.5:x4");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec->delay_ms, 10.0);
  EXPECT_DOUBLE_EQ(spec->probability, 0.5);
  EXPECT_EQ(spec->max_triggers, 4);
}

TEST_F(FaultTest, ParseActionCrashIsOneShotByDefault) {
  auto spec = FailPointRegistry::ParseAction("crash");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->action, FailAction::kCrash);
  EXPECT_EQ(spec->max_triggers, 1);

  spec = FailPointRegistry::ParseAction("crash:x3");  // Explicit override.
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->max_triggers, 3);
}

TEST_F(FaultTest, ParseActionOffAndMalformedSpecs) {
  auto spec = FailPointRegistry::ParseAction("off");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->action, FailAction::kOff);

  for (const char* bad : {"", "explode", "delay", "delay:abc", "error:1.5",
                          "error:-0.1", "error:0.5:y2", "error:0.5:x0",
                          "error:0.5:x2:extra"}) {
    EXPECT_EQ(FailPointRegistry::ParseAction(bad).status().code(),
              StatusCode::kInvalidArgument)
        << "spec: " << bad;
  }
}

// ---------------------------------------------------------------------------
// Arming and evaluation.

TEST_F(FaultTest, DisarmedSiteReturnsOkWithoutCounting) {
  FailPoint* fp = FailPointRegistry::Default()->Get("test.disarmed");
  const uint64_t hits_before = fp->hits();
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_FALSE(fp->armed());
  EXPECT_EQ(fp->hits(), hits_before);  // Fast path skips counters.
}

TEST_F(FaultTest, ArmedErrorFiresAndDisarmStops) {
  FailPointRegistry* reg = FailPointRegistry::Default();
  ASSERT_TRUE(reg->Arm("test.err", "error").ok());
  FailPoint* fp = reg->Get("test.err");
  const uint64_t hits_before = fp->hits();
  const uint64_t trig_before = fp->triggered();

  const Status st = fp->Evaluate();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("test.err"), std::string::npos);
  EXPECT_EQ(fp->hits(), hits_before + 1);
  EXPECT_EQ(fp->triggered(), trig_before + 1);

  fp->Disarm();
  EXPECT_TRUE(fp->Evaluate().ok());
  EXPECT_EQ(fp->triggered(), trig_before + 1);
}

TEST_F(FaultTest, CustomErrorCodePropagates) {
  FailSpec spec;
  spec.action = FailAction::kError;
  spec.error_code = StatusCode::kResourceExhausted;
  FailPoint* fp = FailPointRegistry::Default()->Get("test.code");
  fp->Arm(spec);
  EXPECT_EQ(fp->Evaluate().code(), StatusCode::kResourceExhausted);
}

TEST_F(FaultTest, TriggerCapFiresExactlyNTimesThenDisarms) {
  FailPointRegistry* reg = FailPointRegistry::Default();
  ASSERT_TRUE(reg->Arm("test.cap", "error:1:x2").ok());
  FailPoint* fp = reg->Get("test.cap");

  // Both allowed triggers fire — including the final one (the capture-
  // before-disarm path), which must still return the error.
  EXPECT_FALSE(fp->Evaluate().ok());
  EXPECT_TRUE(fp->armed());
  EXPECT_FALSE(fp->Evaluate().ok());
  EXPECT_FALSE(fp->armed());  // Cap reached: auto-disarmed.
  EXPECT_TRUE(fp->Evaluate().ok());
}

TEST_F(FaultTest, ProbabilityStreamIsSeededAndDeterministic) {
  FailPointRegistry* reg = FailPointRegistry::Default();
  ASSERT_TRUE(reg->Arm("test.prob", "error:0.3").ok());
  FailPoint* fp = reg->Get("test.prob");

  auto count_errors = [&]() {
    int errors = 0;
    for (int i = 0; i < 1000; ++i) {
      if (!fp->Evaluate().ok()) ++errors;
    }
    return errors;
  };
  reg->Seed(7);
  const int first = count_errors();
  reg->Seed(7);
  EXPECT_EQ(count_errors(), first);  // Same seed, same schedule.
  // Loose binomial bounds: p=0.3 over 1000 draws.
  EXPECT_GT(first, 200);
  EXPECT_LT(first, 400);
}

TEST_F(FaultTest, ArmFromSpecArmsSchedule) {
  FailPointRegistry* reg = FailPointRegistry::Default();
  ASSERT_TRUE(reg->ArmFromSpec("test.a=error,test.b=delay:1ms").ok());
  const auto names = reg->ArmedNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.a"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test.b"), names.end());

  EXPECT_EQ(reg->ArmFromSpec("noequals").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg->ArmFromSpec("=error").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg->ArmFromSpec("test.a=bogus").code(),
            StatusCode::kInvalidArgument);

  reg->DisarmAll();
  EXPECT_TRUE(reg->ArmedNames().empty());
}

TEST_F(FaultTest, DelayActionSleeps) {
  FailPointRegistry* reg = FailPointRegistry::Default();
  ASSERT_TRUE(reg->Arm("test.delay", "delay:30ms").ok());
  Timer timer;
  EXPECT_TRUE(reg->Get("test.delay")->Evaluate().ok());
  EXPECT_GE(timer.ElapsedMillis(), 25.0);
}

TEST_F(FaultTest, MacroEvaluatesNamedSite) {
  EXPECT_TRUE(OCT_FAILPOINT("test.macro").ok());
  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("test.macro", "error").ok());
  EXPECT_EQ(OCT_FAILPOINT("test.macro").code(), StatusCode::kInternal);
}

#ifdef OCT_CRASH_HARNESS
// A crash rehearsal must not swallow what the process printed: stdout
// redirected to a file is block-buffered, and the crash action flushes it
// before aborting.
TEST_F(FaultTest, CrashActionFlushesBufferedStdout) {
  const std::string path = ::testing::TempDir() + "oct_crash_stdout.txt";
  std::remove(path.c_str());
  std::fflush(stdout);  // The child must not inherit gtest's pending output.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (std::freopen(path.c_str(), "w", stdout) == nullptr) _exit(2);
    static char buffer[BUFSIZ];
    if (std::setvbuf(stdout, buffer, _IOFBF, sizeof(buffer)) != 0) _exit(3);
    std::printf("before the crash");  // No newline: stays buffered.
    FailPointRegistry* reg = FailPointRegistry::Default();
    if (!reg->Arm("test.crash", "crash").ok()) _exit(4);
    (void)reg->Get("test.crash")->Evaluate();
    _exit(5);  // Unreachable: the failpoint aborts.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exit status " << wstatus;
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);
  std::ifstream in(path);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "before the crash");
  std::remove(path.c_str());
}
#endif

// ---------------------------------------------------------------------------
// CancelToken.

TEST_F(FaultTest, CancelTokenDefaultNeverExpires) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.status().ok());
  EXPECT_TRUE(std::isinf(token.RemainingSeconds()));
}

TEST_F(FaultTest, CancelLatchesAndCopiesShareState) {
  CancelToken token;
  CancelToken copy = token;
  copy.Cancel();
  EXPECT_TRUE(token.Cancelled());  // Copies observe the shared state.
  EXPECT_TRUE(copy.Cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultTest, DeadlineTokenExpires) {
  const CancelToken expired = CancelToken::WithDeadline(0.0);
  EXPECT_TRUE(expired.Cancelled());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(expired.RemainingSeconds(), 0.0);

  const CancelToken generous = CancelToken::WithDeadline(60.0);
  EXPECT_FALSE(generous.Cancelled());
  EXPECT_GT(generous.RemainingSeconds(), 0.0);
  EXPECT_LE(generous.RemainingSeconds(), 60.0);
}

TEST_F(FaultTest, NullTokenHelperIsFalse) {
  EXPECT_FALSE(fault::Cancelled(nullptr));
  const CancelToken token = CancelToken::WithDeadline(0.0);
  EXPECT_TRUE(fault::Cancelled(&token));
}

// ---------------------------------------------------------------------------
// Anytime builds under cancellation.

TEST_F(FaultTest, MisReturnsValidIndependentSetWhenCancelled) {
  // A ring of 40 vertices: large enough to exercise the component loop.
  mis::Graph graph(40);
  for (mis::VertexId v = 0; v < 40; ++v) {
    graph.set_weight(v, 1.0 + 0.01 * static_cast<double>(v));
    graph.AddEdge(v, (v + 1) % 40);
  }
  graph.Finalize();

  const CancelToken expired = CancelToken::WithDeadline(0.0);
  mis::MisOptions options;
  options.cancel = &expired;
  const mis::MisSolution solution = mis::SolveMis(graph, options);
  EXPECT_FALSE(solution.optimal);  // Degraded, but still...
  EXPECT_FALSE(solution.vertices.empty());
  EXPECT_TRUE(graph.IsIndependentSet(solution.vertices));  // ...valid.
  EXPECT_GT(solution.weight, 0.0);
}

TEST_F(FaultTest, CtcrWithExpiredDeadlineReturnsValidBestSoFarTree) {
  const OctInput input = Figure2Input();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);

  const CancelToken expired = CancelToken::WithDeadline(0.0);
  ctcr::CtcrOptions options;
  options.cancel = &expired;
  const ctcr::CtcrResult result = ctcr::BuildCategoryTree(input, sim, options);

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  // Anytime contract: the degraded tree is still a valid model.
  EXPECT_TRUE(result.tree.ValidateModel(input).ok());
  EXPECT_GT(result.tree.NumCategories(), 0u);

  // Without a deadline the same build reports OK.
  const ctcr::CtcrResult full = ctcr::BuildCategoryTree(input, sim, {});
  EXPECT_TRUE(full.status.ok());
}

TEST_F(FaultTest, CctWithExpiredDeadlineReturnsValidBestSoFarTree) {
  const OctInput input = Figure2Input();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);

  const CancelToken expired = CancelToken::WithDeadline(0.0);
  cct::CctOptions options;
  options.cancel = &expired;
  const cct::CctResult result = cct::BuildCategoryTree(input, sim, options);

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.tree.ValidateModel(input).ok());

  const cct::CctResult full = cct::BuildCategoryTree(input, sim, {});
  EXPECT_TRUE(full.status.ok());
}

TEST_F(FaultTest, CtcrOnDatasetBHonorsShortDeadline) {
  // The acceptance scenario: a realistic (scaled-down) dataset-B build
  // under a budget far too small to finish must come back quickly with a
  // valid, invariant-checked tree and kDeadlineExceeded.
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const data::Dataset dataset = data::MakeDataset('B', sim, 0.03);

  const CancelToken budget = CancelToken::WithDeadline(1e-4);
  ctcr::CtcrOptions options;
  options.cancel = &budget;
  const ctcr::CtcrResult result =
      ctcr::BuildCategoryTree(dataset.input, sim, options);

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.tree.ValidateModel(dataset.input).ok());
  EXPECT_GT(result.tree.NumCategories(), 0u);
}

TEST_F(FaultTest, CtcrBuildFailpointSurfacesInResultStatus) {
  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("ctcr.build", "error:1:x1").ok());
  const ctcr::CtcrResult result = ctcr::BuildCategoryTree(
      Figure2Input(), Similarity(Variant::kJaccardThreshold, 0.8), {});
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
}

}  // namespace

// ---------------------------------------------------------------------------
// RebuildScheduler resilience. Uses the serve namespace for the fixture.

namespace serve {
namespace {

using fault::FailPointRegistry;
using testing_inputs::Figure2Input;

class SchedulerFaultTest : public ::testing::Test {
 protected:
  SchedulerFaultTest() : sim_(Variant::kJaccardThreshold, 0.8), pool_(2) {
    FailPointRegistry::Default()->DisarmAll();
  }
  ~SchedulerFaultTest() override {
    FailPointRegistry::Default()->DisarmAll();
  }

  std::unique_ptr<RebuildScheduler> MakeScheduler(RebuildPolicy policy) {
    return std::make_unique<RebuildScheduler>(&store_, &stats_, &dataset_,
                                              sim_, policy, &pool_);
  }

  OctInput DriftedInput() {
    OctInput input(20);
    input.Add(ItemSet({10, 11, 12}), 2.0, "joggers");
    input.Add(ItemSet({13, 14, 15, 16}), 1.0, "windbreakers");
    input.Add(ItemSet({10, 11, 12, 13, 14, 15, 16}), 1.0, "activewear");
    return input;
  }

  data::Dataset dataset_;
  TreeStore store_;
  ServeStats stats_;
  Similarity sim_;
  ThreadPool pool_;
};

TEST_F(SchedulerFaultTest, TransientFailuresAreRetriedWithBackoff) {
  RebuildPolicy policy;
  policy.max_retries = 2;
  policy.backoff_initial_seconds = 0.001;
  policy.backoff_max_seconds = 0.004;
  auto scheduler = MakeScheduler(policy);

  // First two attempts hit the injected fault; the third succeeds.
  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("serve.rebuild", "error:1:x2").ok());
  const RebuildOutcome outcome = scheduler->RebuildNow(Figure2Input());
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_TRUE(outcome.published);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(stats_.rebuild_retries.Value(), 2u);
  EXPECT_EQ(scheduler->circuit_state(), CircuitState::kClosed);
}

TEST_F(SchedulerFaultTest, BreakerOpensAfterConsecutiveFailuresAndSheds) {
  RebuildPolicy policy;
  policy.max_retries = 0;
  policy.breaker_failure_threshold = 2;
  policy.breaker_cooldown_seconds = 60.0;  // Stays open for this test.
  auto scheduler = MakeScheduler(policy);

  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("serve.rebuild", "error").ok());
  EXPECT_FALSE(scheduler->RebuildNow(Figure2Input()).status.ok());
  EXPECT_EQ(scheduler->circuit_state(), CircuitState::kClosed);
  EXPECT_FALSE(scheduler->RebuildNow(Figure2Input()).status.ok());
  EXPECT_EQ(scheduler->circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(scheduler->consecutive_failures(), 2);

  // While open, batches are rejected: readers keep the last good snapshot
  // (here: nothing was ever published, and nothing is torn down trying).
  EXPECT_EQ(scheduler->OfferBatch(Figure2Input()),
            BatchDecision::kCircuitOpen);
  EXPECT_EQ(stats_.breaker_opened.Value(), 1u);
  EXPECT_EQ(stats_.batches_rejected.Value(), 1u);
  EXPECT_EQ(stats_.breaker_state.Value(), 1);  // kOpen gauge.
}

TEST_F(SchedulerFaultTest, BreakerHalfOpenTrialClosesOnSuccess) {
  RebuildPolicy policy;
  policy.max_retries = 0;
  policy.breaker_failure_threshold = 1;
  policy.breaker_cooldown_seconds = 0.01;
  auto scheduler = MakeScheduler(policy);

  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("serve.rebuild", "error:1:x1").ok());
  EXPECT_FALSE(scheduler->RebuildNow(Figure2Input()).status.ok());
  ASSERT_EQ(scheduler->circuit_state(), CircuitState::kOpen);

  // After the cooldown a single trial is admitted (half-open); the fault is
  // exhausted, so the trial succeeds and the breaker closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(scheduler->OfferBatch(Figure2Input()), BatchDecision::kBootstrap);
  scheduler->WaitForRebuild();
  EXPECT_EQ(scheduler->circuit_state(), CircuitState::kClosed);
  EXPECT_TRUE(scheduler->last_outcome().published);
  EXPECT_EQ(stats_.breaker_closed.Value(), 1u);
  EXPECT_EQ(stats_.breaker_state.Value(), 0);
}

TEST_F(SchedulerFaultTest, DriftedBatchDuringRebuildCoalescesNotDrops) {
  auto scheduler = MakeScheduler({});
  scheduler->RebuildNow(Figure2Input());

  // Slow the next rebuild down so the second offer lands mid-flight.
  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("serve.rebuild", "delay:100ms").ok());
  ASSERT_EQ(scheduler->OfferBatch(DriftedInput()), BatchDecision::kScheduled);
  EXPECT_EQ(scheduler->OfferBatch(DriftedInput()), BatchDecision::kCoalesced);
  scheduler->WaitForRebuild();  // Covers the whole chain.

  EXPECT_FALSE(scheduler->rebuild_in_flight());
  EXPECT_EQ(stats_.batches_coalesced.Value(), 1u);
  // The coalesced batch either evaporated on the fresh re-probe (the new
  // tree already serves it) or ran its own rebuild; either way nothing was
  // silently dropped and the store serves the drifted distribution.
  EXPECT_GE(stats_.rebuilds_triggered.Value(), 2u);
  EXPECT_GT(store_.CurrentVersion(), 1u);
}

TEST_F(SchedulerFaultTest, DeadlineBoundRebuildStillPublishesBestSoFar) {
  RebuildPolicy policy;
  policy.rebuild_deadline_seconds = 1e-9;  // Expired before the build starts.
  auto scheduler = MakeScheduler(policy);

  const OctInput batch = Figure2Input();
  const RebuildOutcome outcome = scheduler->RebuildNow(batch);
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.attempts, 1);  // Deadline hits are not retried...
  EXPECT_EQ(scheduler->circuit_state(), CircuitState::kClosed);  // ...nor
  EXPECT_EQ(scheduler->consecutive_failures(), 0);  // breaker failures.

  // The degraded tree passed the gates and is being served — and is valid.
  EXPECT_TRUE(outcome.published);
  const auto snap = store_.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->tree().ValidateModel(batch).ok());
}

TEST_F(SchedulerFaultTest, PublishFailpointFailsAttemptWithoutPublishing) {
  RebuildPolicy policy;
  policy.max_retries = 0;
  auto scheduler = MakeScheduler(policy);

  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("serve.publish", "error:1:x1").ok());
  const RebuildOutcome outcome = scheduler->RebuildNow(Figure2Input());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
  EXPECT_FALSE(outcome.published);
  EXPECT_EQ(store_.Current(), nullptr);  // Publish never happened.
  EXPECT_EQ(scheduler->consecutive_failures(), 1);
}

}  // namespace
}  // namespace serve
}  // namespace oct
