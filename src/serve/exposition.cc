#include "serve/exposition.h"

#include <charconv>
#include <cmath>
#include <system_error>
#include <utility>

#include "data/datasets.h"
#include "delta/maintainer.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/watchdog.h"
#include "router/query_parse.h"
#include "router/router.h"
#include "store/replica.h"
#include "store/version_log.h"
#include "util/timer.h"

namespace oct {
namespace serve {

namespace {

/// Parses all of `text` as a T: false on junk, on a trailing remainder, on
/// a sign T cannot hold, and on overflow.
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// The owned observability stack's fixed settings: bad requests retained
/// for /slowz; the fractions of routes that must finish within
/// slow_threshold_us (router.latency) and that must be neither shed nor
/// errored (router.availability); and the burn rate both SLO windows must
/// exceed to alert.
constexpr size_t kSlowLogCapacity = 256;
constexpr double kLatencySloTarget = 0.99;
constexpr double kAvailabilitySloTarget = 0.999;
constexpr double kSloBurnAlertThreshold = 2.0;

}  // namespace

ServingExposition::ServingExposition(const TreeStore* store,
                                     const RebuildScheduler* scheduler,
                                     const ServeStats* stats,
                                     ExpositionOptions options,
                                     router::Router* router,
                                     const delta::DeltaMaintainer* maintainer)
    : store_(store),
      scheduler_(scheduler),
      router_(router),
      maintainer_(maintainer),
      options_(std::move(options)) {
  InstallObservability();
  obs::ExpositionOptions server_options;
  server_options.port = options_.port;
  server_options.bind_address = options_.bind_address;
  server_options.registries.push_back(obs::MetricsRegistry::Default());
  if (stats != nullptr) server_options.registries.push_back(&stats->registry());
  if (maintainer_ != nullptr) {
    server_options.registries.push_back(&maintainer_->stats().registry());
  }
  if (router_ != nullptr) {
    server_options.registries.push_back(&router_->stats().registry());
    server_options.extra_endpoints.push_back(
        {"/route",
         [this](const obs::HttpRequest& request) {
           return HandleRoute(request);
         }});
  }
  // Always mounted; answers 503 until AttachDurability() provides a log.
  server_options.extra_endpoints.push_back(
      {"/store/record",
       [this](const obs::HttpRequest& request) {
         return HandleStoreRecord(request);
       }});
  server_options.health = [this] { return Health(); };
  server_options.status_json = [this] { return StatusJson(); };
  server_ = std::make_unique<obs::ExpositionServer>(std::move(server_options));
}

ServingExposition::~ServingExposition() {
  Stop();
  UninstallObservability();
}

void ServingExposition::InstallObservability() {
  slow_log_ = std::make_unique<obs::SlowLog>(kSlowLogCapacity);
  obs::TailSamplerOptions tail_options;
  tail_options.slow_threshold_us = options_.slow_threshold_us;
  tail_sampler_ = std::make_unique<obs::TailSampler>(tail_options);

  slo_ = std::make_unique<obs::SloEngine>();
  obs::SloObjectiveSpec latency;
  latency.name = "router.latency";
  latency.description =
      "Routes finishing within " +
      std::to_string(static_cast<long long>(options_.slow_threshold_us)) +
      "us";
  latency.target = kLatencySloTarget;
  latency.latency_threshold_us = options_.slow_threshold_us;
  latency.burn_alert_threshold = kSloBurnAlertThreshold;
  slo_->AddObjective(latency);
  obs::SloObjectiveSpec availability;
  availability.name = "router.availability";
  availability.description = "Requests neither shed nor errored";
  availability.target = kAvailabilitySloTarget;
  availability.burn_alert_threshold = kSloBurnAlertThreshold;
  slo_->AddObjective(availability);

  watchdog_ = std::make_unique<obs::Watchdog>();
  watchdog_->RegisterPump("delta.maintainer", options_.pump_stall_seconds);
  watchdog_->RegisterPump("store.replica_shipper",
                          options_.pump_stall_seconds);
  watchdog_->RegisterPump("serve.scheduler", options_.pump_stall_seconds);

  // Fill only empty slots: an operator- or test-installed instance always
  // wins, and destruction clears exactly what this instance installed. The
  // /slowz, /sloz, and tail-sampling render paths all resolve the globals,
  // so the effective stack stays consistent either way.
  if (obs::SlowLog::Global() == nullptr) {
    obs::SlowLog::InstallGlobal(slow_log_.get());
    installed_slow_log_ = true;
  }
  if (obs::TailSampler::Global() == nullptr) {
    obs::TailSampler::InstallGlobal(tail_sampler_.get());
    installed_tail_sampler_ = true;
  }
  if (obs::SloEngine::Global() == nullptr) {
    obs::SloEngine::InstallGlobal(slo_.get());
    installed_slo_ = true;
  }
  if (obs::Watchdog::Global() == nullptr) {
    obs::Watchdog::InstallGlobal(watchdog_.get());
    installed_watchdog_ = true;
  }
}

void ServingExposition::UninstallObservability() {
  // Sampler first: stop opening pending traces before the sinks go away.
  if (installed_tail_sampler_) obs::TailSampler::InstallGlobal(nullptr);
  if (installed_slow_log_) obs::SlowLog::InstallGlobal(nullptr);
  if (installed_slo_) obs::SloEngine::InstallGlobal(nullptr);
  if (installed_watchdog_) obs::Watchdog::InstallGlobal(nullptr);
  installed_tail_sampler_ = installed_slow_log_ = false;
  installed_slo_ = installed_watchdog_ = false;
}

Status ServingExposition::Start() {
  if (!options_.enabled) return Status::OK();
  return server_->Start();
}

void ServingExposition::Stop() { server_->Stop(); }

bool ServingExposition::running() const { return server_->running(); }

int ServingExposition::port() const { return server_->port(); }

obs::HealthReport ServingExposition::Health() const {
  obs::HealthReport report;
  const auto snapshot = store_->Current();
  if (snapshot == nullptr) {
    report.healthy = false;
    report.detail = "no snapshot published";
    return report;
  }
  report.detail =
      "serving v" + std::to_string(snapshot->version()) + ", breaker ";
  if (scheduler_ == nullptr) {
    report.detail += "absent";
  } else {
    const CircuitState breaker = scheduler_->circuit_state();
    report.detail += CircuitStateName(breaker);
    // Open means rebuilds are failing repeatedly and the served tree is
    // going stale with no recovery in progress — page someone. Half-open is
    // the recovery probe: readers still get the last good snapshot, so the
    // process stays healthy.
    if (breaker == CircuitState::kOpen) {
      report.healthy = false;
      report.detail += " (" +
                       std::to_string(scheduler_->consecutive_failures()) +
                       " consecutive rebuild failures)";
    }
  }
  // A mounted /route endpoint with a stopped router serves only sheds:
  // that is an unhealthy process even while snapshot reads still work.
  if (router_ != nullptr) {
    if (router_->running()) {
      report.detail += ", router running";
    } else {
      report.healthy = false;
      report.detail += ", router stopped";
    }
  }
  // Degraded, not unhealthy: the process still answers, but the SLO error
  // budget is burning or a background pump has gone quiet. Probes keep
  // routing here (200 "degraded: ..."); dashboards and the smoke job see
  // the flag. The *globals* are consulted — that is where the hot path
  // records — whether this instance installed them or someone else did.
  if (const obs::SloEngine* slo = obs::SloEngine::Global()) {
    for (const obs::SloStatus& s : slo->Check()) {
      if (!s.alerting) continue;
      report.degraded = true;
      report.detail += ", slo " + s.name + " burning";
    }
  }
  if (const obs::Watchdog* dog = obs::Watchdog::Global()) {
    for (const obs::PumpStatus& p : dog->Check()) {
      if (!p.stalled) continue;
      report.degraded = true;
      report.detail += ", pump " + p.name + " stalled";
    }
  }
  return report;
}

std::string ServingExposition::HandleRoute(
    const obs::HttpRequest& request) const {
  obs::JsonWriter w;
  const auto error = [&w](int status, const std::string& message) {
    w.BeginObject();
    w.Key("error").String(message);
    w.EndObject();
    return obs::MakeHttpResponse(status, "application/json", w.str());
  };
  if (router_ == nullptr) return error(503, "no router mounted");
  const std::string q = obs::HttpQueryParam(request.query, "q");
  if (q.empty()) {
    return error(400,
                 "missing q parameter (e.g. /route?q=nike+shirt, "
                 "/route?q=brand=nike, /route?q=1:3)");
  }

  Result<data::Query> parsed =
      router::ParseQuery(q, router_->engine().catalog());
  if (!parsed.ok()) return error(400, parsed.status().ToString());

  router::RouteRequest route_request;
  route_request.query = std::move(parsed).value();
  const std::string k = obs::HttpQueryParam(request.query, "k");
  if (!k.empty() && !ParseWhole(k, &route_request.top_k)) {
    return error(400, "k must be a non-negative integer, got '" + k + "'");
  }
  const std::string deadline_ms =
      obs::HttpQueryParam(request.query, "deadline_ms");
  if (!deadline_ms.empty()) {
    constexpr double kMaxDeadlineMs = router::kMaxDeadlineSeconds * 1e3;
    double ms = 0.0;
    if (!ParseWhole(deadline_ms, &ms) || !std::isfinite(ms) || ms < 0.0 ||
        ms > kMaxDeadlineMs) {
      return error(400,
                   "deadline_ms must be a number of milliseconds in [0, " +
                       std::to_string(static_cast<long long>(kMaxDeadlineMs)) +
                       "], got '" + deadline_ms + "'");
    }
    route_request.deadline_seconds = ms * 1e-3;
  }

  // The HTTP ingress owns the request's trace: the router sees a valid
  // ambient context (so it will not mint one of its own) and the finish
  // verdict below includes response-serialization time the router never
  // sees. Early parse errors above deliberately predate the trace — a
  // malformed query is a client problem, not a tail-latency event.
  const obs::TraceContext trace = obs::StartRequestTrace();
  Timer request_timer;
  router::RouteResult result;
  {
    obs::TraceContextScope scope(trace);
    result = router_->Route(route_request);
  }
  int status = 200;
  if (result.shed || result.status.code() == StatusCode::kFailedPrecondition) {
    status = 503;  // Shed or not servable — retryable, not a client error.
  } else if (result.status.code() == StatusCode::kInvalidArgument) {
    status = 400;
  } else if (!result.status.ok() && !result.degraded) {
    status = 500;
  }
  // Degraded stays 200: the deadline ran out while scoring, and the empty
  // ranking says so without claiming a partial one.

  Timer serialize_timer;
  {
    // Scoped so the serialize span closes (and records into the pending
    // trace) before the finish verdict decides promote-or-discard.
    obs::TraceContextScope scope(trace);
    OCT_SPAN("http/serialize");
    w.BeginObject();
    w.Key("query").String(q);
    w.Key("trace_id").String(obs::TraceIdToHex(trace.trace_id));
    w.Key("status").String(StatusCodeName(result.status.code()));
    w.Key("version").Uint(result.version);
    w.Key("result_set_size").Uint(result.result_set_size);
    w.Key("degraded").Bool(result.degraded);
    w.Key("shed").Bool(result.shed);
    w.Key("ranked").BeginArray();
    for (const router::RoutedCategory& category : result.ranked) {
      w.BeginObject();
      w.Key("node").Uint(category.node);
      w.Key("path").BeginArray();
      for (const std::string& label : category.path) w.String(label);
      w.EndArray();
      w.Key("jaccard").Double(category.jaccard);
      w.Key("containment").Double(category.containment);
      w.Key("overlap").Uint(category.overlap);
      w.Key("depth").Uint(category.depth);
      w.EndObject();
    }
    w.EndArray();
    w.Key("nodes_visited").Uint(result.score_stats.nodes_visited);
    w.Key("nodes_pruned").Uint(result.score_stats.nodes_pruned);
    w.Key("total_seconds").Double(result.total_seconds);
    w.EndObject();
  }

  obs::TraceFinish fin;
  fin.total_us = request_timer.ElapsedSeconds() * 1e6;
  fin.shed = result.shed;
  fin.degraded = result.degraded;
  fin.errored = !result.status.ok() && !result.shed && !result.degraded;
  fin.query = q;
  fin.version = result.version;
  fin.resolve_us = result.resolve_seconds * 1e6;
  fin.score_us = result.score_seconds * 1e6;
  fin.serialize_us = serialize_timer.ElapsedSeconds() * 1e6;
  obs::FinishRequestTrace(trace, fin);
  return obs::MakeHttpResponse(status, "application/json", w.str());
}

void ServingExposition::AttachDurability(const store::VersionLog* log,
                                         const store::ReplicaSet* replicas) {
  version_log_ = log;
  replica_set_ = replicas;
}

std::string ServingExposition::HandleStoreRecord(
    const obs::HttpRequest& request) const {
  if (version_log_ == nullptr) {
    return obs::MakeHttpResponse(503, "text/plain; charset=utf-8",
                                 "no version log attached\n");
  }
  const std::string version_param =
      obs::HttpQueryParam(request.query, "version");
  store::TreeVersion version = version_log_->LatestVersion();
  if (!version_param.empty() && !ParseWhole(version_param, &version)) {
    return obs::MakeHttpResponse(
        400, "text/plain; charset=utf-8",
        "version must be a non-negative integer, got '" + version_param +
            "'\n");
  }
  Result<std::string> record = version_log_->RecordBytes(version);
  if (!record.ok()) {
    const int status =
        record.status().code() == StatusCode::kNotFound ? 404 : 500;
    return obs::MakeHttpResponse(status, "text/plain; charset=utf-8",
                                 record.status().ToString() + "\n");
  }
  // Framed record bytes verbatim: the replica-side InstallRecord verifies
  // CRC + lineage, so the transport needs no integrity of its own.
  return obs::MakeHttpResponse(200, "application/octet-stream",
                               record.value());
}

std::string ServingExposition::StatusJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("dataset_scale").Double(data::BenchScale());
  const auto snapshot = store_->Current();
  w.Key("snapshot_version")
      .Uint(snapshot == nullptr ? 0 : snapshot->version());
  w.Key("retain_limit").Uint(store_->retain_limit());
  w.Key("retained").BeginArray();
  for (const VersionInfo& info : store_->RetainedVersions()) {
    w.BeginObject();
    w.Key("version").Uint(info.version);
    w.Key("categories").Uint(info.num_categories);
    w.Key("items").Uint(info.num_items);
    w.Key("build_seconds").Double(info.build_seconds);
    if (!info.note.empty()) w.Key("note").String(info.note);
    w.EndObject();
  }
  w.EndArray();
  if (scheduler_ != nullptr) {
    w.Key("breaker").String(CircuitStateName(scheduler_->circuit_state()));
    w.Key("consecutive_failures").Int(scheduler_->consecutive_failures());
    w.Key("rebuild_in_flight").Bool(scheduler_->rebuild_in_flight());
    w.Key("published_score").Double(scheduler_->published_score());
    const RebuildOutcome last = scheduler_->last_outcome();
    w.Key("last_rebuild").BeginObject();
    w.Key("published").Bool(last.published);
    w.Key("version").Uint(last.published_version);
    w.Key("seconds").Double(last.seconds);
    w.Key("attempts").Int(last.attempts);
    if (!last.reason.empty()) w.Key("reason").String(last.reason);
    w.EndObject();
  }
  if (maintainer_ != nullptr) {
    const delta::DeltaStats& ds = maintainer_->stats();
    const uint64_t rebuilt = ds.components_rebuilt.Value();
    const uint64_t reused = ds.components_reused.Value();
    w.Key("delta").BeginObject();
    w.Key("working_sets").Int(ds.working_sets.Value());
    w.Key("components").Int(ds.components_total.Value());
    w.Key("batches").Uint(ds.batches.Value());
    w.Key("ops_applied").Uint(ds.ops_applied.Value());
    w.Key("components_rebuilt").Uint(rebuilt);
    w.Key("components_reused").Uint(reused);
    w.Key("reuse_rate")
        .Double(rebuilt + reused == 0
                    ? 0.0
                    : static_cast<double>(reused) /
                          static_cast<double>(rebuilt + reused));
    w.Key("last_dirty_components").Int(ds.last_dirty_components.Value());
    w.Key("fallbacks_full").Uint(ds.fallbacks_full.Value());
    w.Key("splices").Uint(ds.splices.Value());
    w.Key("equivalence_checks").Uint(ds.equivalence_checks.Value());
    w.Key("equivalence_failures").Uint(ds.equivalence_failures.Value());
    w.EndObject();
  }
  if (version_log_ != nullptr || replica_set_ != nullptr) {
    w.Key("durability").BeginObject();
    if (version_log_ != nullptr) {
      const store::OpenReport& open = version_log_->open_report();
      w.Key("log_dir").String(version_log_->dir());
      w.Key("log_version").Uint(version_log_->LatestVersion());
      w.Key("log_entries").Uint(version_log_->Lineage().size());
      w.Key("torn_records_dropped").Uint(open.torn_records_dropped);
      w.Key("records_quarantined").Uint(open.records_quarantined);
      w.Key("manifest_rebuilt").Bool(open.manifest_rebuilt);
    }
    if (replica_set_ != nullptr) {
      w.Key("replicas").BeginArray();
      for (const store::ReplicaStatus& rs : replica_set_->Statuses()) {
        w.BeginObject();
        w.Key("name").String(rs.name);
        w.Key("state").String(store::ReplicaStateName(rs.state));
        w.Key("version").Uint(rs.version);
        w.Key("lag").Uint(rs.lag);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  if (router_ != nullptr) {
    const router::RouterStats& rs = router_->stats();
    const uint64_t requests = rs.requests.Value();
    const uint64_t shed = rs.shed_deadline.Value();
    w.Key("router").BeginObject();
    w.Key("running").Bool(router_->running());
    w.Key("requests").Uint(requests);
    w.Key("routed").Uint(rs.routed.Value());
    w.Key("unrouted").Uint(rs.unrouted.Value());
    w.Key("shed_deadline").Uint(shed);
    w.Key("degraded").Uint(rs.degraded.Value());
    w.Key("errors").Uint(rs.errors.Value());
    w.Key("shed_rate")
        .Double(requests == 0 ? 0.0
                              : static_cast<double>(shed) /
                                    static_cast<double>(requests));
    w.EndObject();
  }
  if (const obs::TailSampler* sampler = obs::TailSampler::Global()) {
    w.Key("tail_sampling").BeginObject();
    w.Key("traces_started").Uint(sampler->traces_started());
    w.Key("traces_promoted").Uint(sampler->traces_promoted());
    w.Key("traces_discarded").Uint(sampler->traces_discarded());
    w.Key("traces_evicted").Uint(sampler->traces_evicted());
    if (const obs::SlowLog* log = obs::SlowLog::Global()) {
      w.Key("slow_log_added").Uint(log->total_added());
    }
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

}  // namespace serve
}  // namespace oct
