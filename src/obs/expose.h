// ExpositionServer: a small embedded HTTP/1.1 endpoint that makes a running
// process observable from the outside — the pull-based counterpart to the
// after-the-fact file exporters in export.h. A Prometheus scraper, a curl
// in a terminal, or the CI smoke job all read the same live state:
//
//   /metrics   Prometheus text format 0.0.4 (counters, gauges, histograms
//              as cumulative _bucket/_sum/_count series, names sanitized;
//              buckets carry OpenMetrics exemplars when the histogram
//              recorded any — `# {trace_id="..."} value ts`)
//   /varz      the JSON metrics export (MetricsToJson), for dashboards
//   /healthz   200 "ok" / "degraded: ..." / 503 "unhealthy" from the
//              installed health hook
//   /tracez    most recent completed spans from the SpanRing retention
//              buffer, as JSON (newest first). ?trace_id=<hex> filters to
//              one request's spans, sorted by start time — the reassembled
//              cross-thread span tree.
//   /slowz     the tail-sampled slow-request log (SlowLog): requests that
//              finished slow, shed, degraded, or errored, newest first,
//              with per-stage latency breakdown
//   /sloz      SLO burn-rate status per objective (SloEngine) plus
//              watchdog pump heartbeats (Watchdog)
//   /statusz   process status JSON: build info, uptime, plus whatever the
//              installed status hook contributes (the serving stack adds
//              snapshot version and retained-version history)
//
// Transport: POSIX sockets, IPv4, loopback by default. One dedicated
// acceptor thread runs a blocking accept loop; accepted connections go to a
// bounded queue drained by a small fixed pool of handler threads, so a slow
// scraper can never wedge the acceptor and the connection count is bounded
// by construction (overflow connections get 503 + close). Start() binds
// (port 0 picks a free port — tests and parallel CI jobs rely on this);
// Stop() closes the listener, drains in-flight handlers, and joins every
// thread. Request reads and connection accepts carry fault.* failpoints
// ("obs.expose.accept", "obs.expose.read") so chaos schedules cover the
// network path.
//
// This is an exposition endpoint, not a web framework: GET only, one
// request per connection ("Connection: close"), bounded request size,
// blocking IO with timeouts.

#ifndef OCT_OBS_EXPOSE_H_
#define OCT_OBS_EXPOSE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/span_ring.h"
#include "obs/watchdog.h"
#include "util/status.h"

namespace oct {
namespace obs {

/// What /healthz reports. `detail` is included in the response body.
/// `degraded` marks a process that still serves but needs attention (SLO
/// burning, pump stalled): /healthz answers 200 "degraded: ..." so probes
/// keep routing to it while dashboards see the flag.
struct HealthReport {
  bool healthy = true;
  std::string detail;
  bool degraded = false;
};

struct HttpRequest;

struct ExpositionOptions {
  /// TCP port to bind; 0 picks any free port (read it back via port()).
  int port = 0;
  /// Bind address. Exposition is operator-facing; default to loopback.
  std::string bind_address = "127.0.0.1";
  /// Handler threads draining the accepted-connection queue.
  int num_workers = 2;
  /// Accepted connections waiting for a handler beyond this are answered
  /// 503 and closed by the acceptor.
  size_t max_pending_connections = 16;
  /// Requests whose header block exceeds this many bytes are rejected 431.
  size_t max_request_bytes = 8192;
  /// Per-connection receive/send timeout.
  double io_timeout_seconds = 5.0;
  /// Registries rendered by /metrics and /varz, in order; metrics appearing
  /// in several registries render from the first. Empty means
  /// {MetricsRegistry::Default()}. The serving stack appends its
  /// per-instance ServeStats registry here.
  std::vector<const MetricsRegistry*> registries;
  /// Source of /tracez spans; nullptr falls back to SpanRing::Global()
  /// (and /tracez reports "no span ring installed" when that is null too).
  SpanRing* span_ring = nullptr;
  /// Most recent spans /tracez returns.
  size_t tracez_limit = 256;
  /// Source of /slowz entries; nullptr falls back to SlowLog::Global().
  SlowLog* slow_log = nullptr;
  /// Most recent entries /slowz returns.
  size_t slowz_limit = 64;
  /// Source of /sloz objective status; nullptr falls back to
  /// SloEngine::Global().
  SloEngine* slo = nullptr;
  /// Source of /sloz pump heartbeats; nullptr falls back to
  /// Watchdog::Global().
  Watchdog* watchdog = nullptr;
  /// /healthz hook; unset means unconditionally healthy.
  std::function<HealthReport()> health;
  /// Extra /statusz fields: must return a JSON *object* string (e.g.
  /// {"serving":{...}}-style content without the outer braces is NOT
  /// expected — return a complete object; it is spliced under "app").
  std::function<std::string()> status_json;
  /// Application GET endpoints beyond the built-ins, matched on exact
  /// path after the built-ins. Handlers return a *complete* HTTP response
  /// (use MakeHttpResponse) and must be thread-safe — they run on handler
  /// threads. The serving stack mounts /route here.
  struct Endpoint {
    std::string path;
    std::function<std::string(const HttpRequest&)> handler;
  };
  std::vector<Endpoint> extra_endpoints;
};

/// One parsed HTTP request line (the only part of a request we interpret).
struct HttpRequest {
  std::string method;
  std::string path;
  /// Raw query string after '?' (no leading '?'); "" when absent. Parse
  /// individual parameters with HttpQueryParam.
  std::string query;
};

/// Parses the request-line + header block in `raw`. Fails with
/// InvalidArgument on malformed input. Exposed for tests.
Result<HttpRequest> ParseHttpRequest(const std::string& raw);

/// Value of `key` in a URL query string ("a=1&b=2"), percent-decoded with
/// '+' as space; "" when the key is absent.
std::string HttpQueryParam(const std::string& query, const std::string& key);

/// Builds a full HTTP/1.1 response (status line, Content-Type/Length,
/// Connection: close, body) — the building block custom endpoints use.
std::string MakeHttpResponse(int status, const std::string& content_type,
                             const std::string& body);

/// Sanitizes a metric name into the Prometheus charset
/// [a-zA-Z_:][a-zA-Z0-9_:]*: every other byte becomes '_', and a leading
/// digit gets a '_' prefix ("serve.p99" -> "serve_p99").
std::string SanitizeMetricName(const std::string& name);

/// Renders every registry into Prometheus text exposition format 0.0.4:
/// counters (as-is, monotonic), gauges, and histograms as cumulative
/// `_bucket{le="..."}`/`_sum`/`_count` series with a terminal le="+Inf",
/// with # HELP/# TYPE metadata lines. Duplicate names across registries
/// render from the first registry only.
std::string RenderPrometheus(
    const std::vector<const MetricsRegistry*>& registries);

/// JSON render of the SpanRing's most recent `limit` spans (newest first).
/// When `trace_id` != 0 only that trace's spans are returned, sorted by
/// start time (the request's span tree; parent_id links reassemble it).
std::string RenderTracez(const SpanRing* ring, size_t limit,
                         uint64_t trace_id = 0);

/// JSON render of the SlowLog's most recent `limit` entries (newest first).
std::string RenderSlowz(const SlowLog* log, size_t limit);

/// JSON render of SLO burn-rate status plus watchdog pump heartbeats.
/// Either source may be null (rendered as empty arrays).
std::string RenderSloz(const SloEngine* engine, const Watchdog* watchdog);

/// Minimal blocking HTTP/1.1 GET against 127.0.0.1:`port`; returns the raw
/// response (status line, headers, body). For tests, benches, and the
/// example self-check — not a general client.
Result<std::string> HttpGetLocal(int port, const std::string& path,
                                 double timeout_seconds = 5.0);

class ExpositionServer {
 public:
  explicit ExpositionServer(ExpositionOptions options);
  /// Stops the server if still running.
  ~ExpositionServer();

  ExpositionServer(const ExpositionServer&) = delete;
  ExpositionServer& operator=(const ExpositionServer&) = delete;

  /// Binds, listens, and starts the acceptor + handler threads. Fails with
  /// Internal when the address cannot be bound, FailedPrecondition when
  /// already running.
  Status Start();

  /// Shuts the listener down, completes in-flight requests, joins all
  /// threads. Idempotent; safe to call with connections mid-read (they are
  /// answered or closed, never leaked).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Port actually bound (resolves port 0); 0 while not running.
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Routes one already-parsed request to its endpoint and returns the full
  /// HTTP response bytes. Exposed so unit tests can exercise endpoint logic
  /// without sockets.
  std::string HandleRequest(const std::string& raw_request) const;

 private:
  struct Listener;  // POSIX fd state (kept out of the header).

  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd) const;
  std::string RespondTo(const HttpRequest& request) const;

  ExpositionOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<int> port_{0};
  std::unique_ptr<Listener> listener_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Bounded handoff queue acceptor -> workers (guarded by queue mutex
  // inside Listener to keep <mutex>-heavy detail out of the header).
  uint64_t start_ns_ = 0;  // TraceNowNanos() at Start, for /statusz uptime.
};

}  // namespace obs
}  // namespace oct

#endif  // OCT_OBS_EXPOSE_H_
