// ServingExposition: the serving stack's pre-wired obs::ExpositionServer.
// Where the raw server takes hooks, this binds them to the pieces an online
// category-tree process already has:
//
//   /healthz   200 only while the TreeStore has a live snapshot AND the
//              RebuildScheduler's circuit breaker is closed or half-open
//              (half-open means a trial rebuild is probing recovery — the
//              last good snapshot is still being served, so the process is
//              healthy for readers). 503 while nothing has ever published
//              or while the breaker is open.
//   /metrics,  render the process-wide default registry (ctcr.*, kernel.*,
//   /varz      cct.*, fault.*, obs.*) plus the per-instance ServeStats,
//              DeltaStats and RouterStats registries (serve.*, delta.*,
//              router.*) as one merged view.
//   /statusz   adds an "app" object: dataset scale, active snapshot
//              version, the retain-K version history, breaker state, and
//              the last rebuild outcome.
//   /slowz,    the tail-sampled bad-request log, SLO burn rates + pump
//   /sloz,     heartbeats, and per-trace span trees — fed by the
//   /tracez    observability stack this class owns: a TailSampler, a
//              256-entry SlowLog, an SloEngine with the router.latency
//              (99%) and router.availability (99.9%) objectives, and a
//              Watchdog. Each is installed as the process global at
//              construction *only when that slot is still empty* (an
//              operator-installed instance always wins) and uninstalled at
//              destruction. /route requests start a trace at ingress;
//              slow, shed, degraded, or errored ones are promoted at
//              completion.
//
//   serve::ExpositionOptions opts;
//   opts.enabled = true;                       // default off: opt-in port
//   opts.port = 9187;                          // 0 = pick a free port
//   serve::ServingExposition exposition(&store, &scheduler, &stats, opts);
//   OCT_RETURN_NOT_OK(exposition.Start());
//   ... curl localhost:9187/metrics ...
//   exposition.Stop();

#ifndef OCT_SERVE_EXPOSITION_H_
#define OCT_SERVE_EXPOSITION_H_

#include <memory>
#include <string>

#include "obs/expose.h"
#include "obs/tail_sampler.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/status.h"

namespace oct {
namespace router {
class Router;
}  // namespace router
namespace delta {
class DeltaMaintainer;
}  // namespace delta
namespace store {
class VersionLog;
class ReplicaSet;
}  // namespace store

namespace serve {

/// ServeOptions-style knob block: the subset of obs::ExpositionOptions an
/// operator configures, plus the enable switch.
struct ExpositionOptions {
  /// Off by default — serving processes opt in to opening a port.
  bool enabled = false;
  /// 0 picks any free port (read back via ServingExposition::port()).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  /// Tail-sampling promotion threshold: requests slower than this land in
  /// /slowz (+ /tracez), and the router.latency SLO counts them bad.
  double slow_threshold_us = 5000.0;
  /// A registered pump (delta maintainer, replica shipper, rebuild
  /// scheduler) that has beaten at least once and then gone quiet this
  /// long is reported stalled on /sloz and degrades /healthz.
  double pump_stall_seconds = 30.0;
};

class ServingExposition {
 public:
  /// `store` must be non-null; `scheduler` and `stats` may be null (health
  /// then checks only snapshot availability, and /metrics renders only the
  /// default registry). `router` (nullable) mounts the /route endpoint,
  /// merges the router.* registry into /metrics, and folds router health
  /// into /healthz. `maintainer` (nullable) merges the delta.* registry
  /// into /metrics and adds a "delta" object to /statusz. All referenced
  /// objects must outlive this instance.
  ServingExposition(const TreeStore* store, const RebuildScheduler* scheduler,
                    const ServeStats* stats, ExpositionOptions options = {},
                    router::Router* router = nullptr,
                    const delta::DeltaMaintainer* maintainer = nullptr);
  ~ServingExposition();

  ServingExposition(const ServingExposition&) = delete;
  ServingExposition& operator=(const ServingExposition&) = delete;

  /// Starts the HTTP server. Returns OK without opening a port when
  /// options.enabled is false, so call sites can Start() unconditionally.
  Status Start();
  void Stop();

  bool running() const;
  /// Bound port while running (resolves port 0); 0 otherwise.
  int port() const;

  /// The /healthz answer (also usable without the HTTP server running).
  obs::HealthReport Health() const;

  /// The "app" object /statusz embeds, as a JSON string.
  std::string StatusJson() const;

  /// The underlying server (for tests that drive HandleRequest directly).
  obs::ExpositionServer* server() { return server_.get(); }

  /// Full HTTP response of the /route endpoint for an already-parsed
  /// request. Exposed so tests can drive routing through the HTTP layer
  /// without sockets.
  std::string HandleRoute(const obs::HttpRequest& request) const;

  /// Attaches the durability layer: mounts meaning into the always-present
  /// /store/record endpoint (replication transport — serves framed version-
  /// log records; 503 until attached) and adds a "durability" object to
  /// /statusz. Either pointer may be null. Call before Start(): the
  /// pointers are read from handler threads without synchronization.
  void AttachDurability(const store::VersionLog* log,
                        const store::ReplicaSet* replicas);

  /// Full HTTP response of /store/record?version=N (latest when omitted).
  std::string HandleStoreRecord(const obs::HttpRequest& request) const;

 private:
  /// Installs the owned observability stack into any empty global slots
  /// (ctor) / clears exactly the slots this instance filled (dtor).
  void InstallObservability();
  void UninstallObservability();

  const TreeStore* const store_;
  const RebuildScheduler* const scheduler_;
  router::Router* const router_;
  const delta::DeltaMaintainer* const maintainer_;
  const store::VersionLog* version_log_ = nullptr;
  const store::ReplicaSet* replica_set_ = nullptr;
  ExpositionOptions options_;

  // Owned observability stack. Globals installed by this instance are
  // tracked so destruction never clears a slot someone else filled.
  std::unique_ptr<obs::SlowLog> slow_log_;
  std::unique_ptr<obs::TailSampler> tail_sampler_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  bool installed_slow_log_ = false;
  bool installed_tail_sampler_ = false;
  bool installed_slo_ = false;
  bool installed_watchdog_ = false;

  std::unique_ptr<obs::ExpositionServer> server_;
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_EXPOSITION_H_
