#include "router/router.h"

#include <algorithm>
#include <utility>

#include "fault/failpoint.h"
#include "obs/slo.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace router {

namespace {

/// The request's wall-clock budget in seconds, capped at
/// kMaxDeadlineSeconds; 0 when it carries none.
double BudgetSeconds(const RouteRequest& request) {
  return request.deadline_seconds > 0.0
             ? std::min(request.deadline_seconds, kMaxDeadlineSeconds)
             : 0.0;
}

fault::CancelToken BudgetToken(double budget_seconds) {
  return budget_seconds > 0.0 ? fault::CancelToken::WithDeadline(budget_seconds)
                              : fault::CancelToken();
}

/// Feeds the installed SLO engine (no-op when none): route latency and
/// non-shed availability, the two objectives the serving stack declares.
void RecordSlo(const RouteResult& result) {
  obs::SloEngine* slo = obs::SloEngine::Global();
  if (slo == nullptr) return;
  static const std::string kLatency = "router.latency";
  static const std::string kAvailability = "router.availability";
  slo->RecordLatency(kLatency, result.total_seconds * 1e6);
  const bool errored = !result.status.ok() && !result.shed && !result.degraded;
  slo->Record(kAvailability, !result.shed && !errored);
}

/// Why an OK answer ranked nothing, from its result set and scoring counts.
UnroutedReason WhyUnrouted(const RouteResult& result) {
  if (result.result_set_size == 0) return UnroutedReason::kEmptyResultSet;
  const ScoreStats& stats = result.score_stats;
  // A placed item touches at least the root.
  if (stats.nodes_visited == 0) return UnroutedReason::kUnplaced;
  if (2 * stats.items_in_misc > result.result_set_size) {
    return UnroutedReason::kMiscDominated;
  }
  return UnroutedReason::kBelowFloor;
}

}  // namespace

Router::Router(const serve::TreeStore* store, const data::SearchEngine* engine,
               RouterOptions options)
    : store_(store), engine_(engine), options_(std::move(options)) {
  OCT_CHECK(store_ != nullptr);
  OCT_CHECK(engine_ != nullptr);
}

void Router::Start() { running_.store(true, std::memory_order_release); }

void Router::Stop() { running_.store(false, std::memory_order_release); }

bool Router::running() const {
  return running_.load(std::memory_order_acquire);
}

std::shared_ptr<const RouteIndex> Router::CurrentIndex() const {
  std::shared_ptr<const serve::TreeSnapshot> snapshot = store_->Current();
  if (snapshot == nullptr) return nullptr;
  return RouteIndex::Build(std::move(snapshot));
}

RouteResult Router::Route(const RouteRequest& request) {
  Timer timer;
  const double budget = BudgetSeconds(request);
  // A caller that installed a context (the HTTP ingress) stays the trace
  // owner: it finishes the trace, seeing serialization time the router
  // cannot. Direct callers (benches, tests) get a trace the router mints
  // and finishes here, so they still get span trees and tail sampling.
  obs::TraceContext trace = obs::CurrentTraceContext();
  const bool own_trace = !trace.valid();
  if (own_trace) trace = obs::StartRequestTrace();
  RouteResult result;
  if (!running()) {
    result.status = Status::FailedPrecondition("router: not running");
    result.shed = true;
    result.trace_id = trace.trace_id;
  } else {
    {
      obs::TraceContextScope scope(trace);
      stats_.requests.Increment();
      result = Answer(request, BudgetToken(budget));
    }
    result.total_seconds = timer.ElapsedSeconds();
    FinishResult(result);
    stats_.route_us.RecordWithExemplar(result.total_seconds * 1e6,
                                       result.trace_id);
    RecordSlo(result);
  }
  if (own_trace) {
    obs::TraceFinish fin;
    fin.total_us = result.total_seconds * 1e6;
    fin.resolve_us = result.resolve_seconds * 1e6;
    fin.score_us = result.score_seconds * 1e6;
    fin.shed = result.shed;
    fin.degraded = result.degraded;
    fin.errored = !result.status.ok() && !result.shed && !result.degraded;
    fin.version = result.version;
    fin.query = request.query.Text(engine_->catalog());
    obs::FinishRequestTrace(trace, fin);
  }
  return result;
}

RouteResult Router::RouteSerial(const RouteRequest& request) const {
  Timer timer;
  RouteResult result = Answer(request, BudgetToken(BudgetSeconds(request)));
  result.total_seconds = timer.ElapsedSeconds();
  // The serial oracle stays out of the outcome counters and the SLO ledger
  // (it is a correctness probe, not traffic), but its stage latencies are
  // recorded and it still exemplar-links when a context is live.
  stats_.route_us.RecordWithExemplar(result.total_seconds * 1e6,
                                     result.trace_id);
  return result;
}

RouteResult Router::Answer(const RouteRequest& request,
                           const fault::CancelToken& cancel) const {
  OCT_SPAN("router/route");
  RouteResult result;
  result.trace_id = obs::CurrentTraceContext().trace_id;
  // Pin one index, and thus one snapshot, for the whole answer: a publish
  // mid-request never tears it.
  const std::shared_ptr<const RouteIndex> index = CurrentIndex();
  if (index == nullptr) {
    result.status = Status::FailedPrecondition("router: no published tree");
    return result;
  }
  result.version = index->version();

  Status injected = OCT_FAILPOINT("router.resolve");
  if (!injected.ok()) {
    result.status = std::move(injected);
    return result;
  }
  Timer resolve_timer;
  Result<ItemSet> resolved = [&] {
    OCT_SPAN("router/resolve");
    return engine_->TryResultSet(request.query, options_.relevance_threshold);
  }();
  result.resolve_seconds = resolve_timer.ElapsedSeconds();
  stats_.resolve_us.Record(result.resolve_seconds * 1e6);
  if (!resolved.ok()) {
    result.status = resolved.status();
    return result;
  }
  result.result_set_size = resolved->size();
  if (cancel.Cancelled()) {
    // Budget gone before scoring began: shed, don't score.
    result.status =
        Status::DeadlineExceeded("router: deadline expired before scoring");
    result.shed = true;
    return result;
  }

  injected = OCT_FAILPOINT("router.score");
  if (!injected.ok()) {
    result.status = std::move(injected);
    return result;
  }
  const size_t top_k = request.top_k != 0 ? request.top_k : options_.top_k;
  const double min_jaccard =
      request.min_jaccard >= 0.0 ? request.min_jaccard : options_.min_jaccard;
  Timer score_timer;
  {
    OCT_SPAN("router/score");
    std::vector<NodeScore> scores;
    result.score_stats =
        index->ScoreTopK(*resolved, top_k, min_jaccard, &cancel, &scores);
    result.degraded = result.score_stats.degraded;
    result.status = result.degraded
                        ? Status::DeadlineExceeded(
                              "router: deadline expired while scoring")
                        : Status::OK();

    const CategoryTree& tree = index->snapshot().tree();
    result.ranked.reserve(scores.size());
    for (const NodeScore& score : scores) {
      RoutedCategory category;
      category.node = score.node;
      category.jaccard = score.jaccard;
      category.containment = score.containment;
      category.overlap = score.overlap;
      category.depth = score.depth;
      for (NodeId id : index->snapshot().PathTo(score.node)) {
        category.path.push_back(tree.node(id).label);
      }
      result.ranked.push_back(std::move(category));
    }
  }
  result.score_seconds = score_timer.ElapsedSeconds();
  stats_.score_us.Record(result.score_seconds * 1e6);
  return result;
}

void Router::FinishResult(const RouteResult& result) const {
  if (result.shed) {
    stats_.shed_deadline.Increment();
  } else if (result.degraded) {
    stats_.degraded.Increment();
  } else if (!result.status.ok()) {
    stats_.errors.Increment();
  } else if (!result.ranked.empty()) {
    stats_.routed.Increment();
  } else {
    stats_.unrouted.Increment();
    stats_.unrouted_by_reason[static_cast<size_t>(WhyUnrouted(result))]
        ->Increment();
  }
}

}  // namespace router
}  // namespace oct
