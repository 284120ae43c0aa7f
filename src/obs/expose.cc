#include "obs/expose.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>

#include "fault/failpoint.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/perf_counters.h"

namespace oct {
namespace obs {

namespace {

// ---------------------------------------------------------------------------
// Server-side metrics (default registry; the server watches itself).
// ---------------------------------------------------------------------------

Counter* RequestsCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.expose.requests", "HTTP requests answered by the exposition server");
  return c;
}

Counter* BadRequestsCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.expose.bad_requests",
      "Exposition requests rejected (malformed, oversized, or wrong method)");
  return c;
}

Counter* RejectedConnectionsCounter() {
  static Counter* c = MetricsRegistry::Default()->GetCounter(
      "obs.expose.rejected_connections",
      "Connections shed because the pending-connection queue was full");
  return c;
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

std::string TextResponse(int status, const std::string& body) {
  return MakeHttpResponse(status, "text/plain; charset=utf-8", body);
}

std::string JsonResponse(int status, const std::string& body) {
  return MakeHttpResponse(status, "application/json", body);
}

void AppendPrometheusValue(std::string* out, double value) {
  if (std::isinf(value)) {
    *out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  if (std::isnan(value)) {
    *out += "NaN";
    return;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

/// Escapes a HELP text per the exposition format (backslash and newline).
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string MakeHttpResponse(int status, const std::string& content_type,
                             const std::string& body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    ReasonPhrase(status) + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

namespace {

/// Percent-decodes one URL query component; '+' means space.
std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return c - 'A' + 10;
      };
      out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

std::string HttpQueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return UrlDecode(query.substr(eq + 1, amp - eq - 1));
    }
    pos = amp + 1;
  }
  return "";
}

Result<HttpRequest> ParseHttpRequest(const std::string& raw) {
  const size_t line_end = raw.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? raw : raw.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) {
    return Status::InvalidArgument("malformed request line: no method");
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) {
    return Status::InvalidArgument("malformed request line: no target");
  }
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) {
    return Status::InvalidArgument("malformed request line: bad version '" +
                                   version + "'");
  }
  HttpRequest request;
  request.method = line.substr(0, sp1);
  request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Built-in endpoints are parameterless; extra endpoints (e.g. /route)
  // read parameters from `query` via HttpQueryParam.
  const size_t query = request.path.find('?');
  if (query != std::string::npos) {
    request.query = request.path.substr(query + 1);
    request.path.resize(query);
  }
  if (request.path.empty() || request.path[0] != '/') {
    return Status::InvalidArgument("malformed request target: " +
                                   request.path);
  }
  return request;
}

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) return "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string RenderPrometheus(
    const std::vector<const MetricsRegistry*>& registries) {
  std::string out;
  std::set<std::string> seen;  // First registry wins on duplicate names.
  const auto emit_header = [&out](const std::string& prom_name,
                                  const MetricsRegistry::MetricMeta& meta,
                                  const char* type) {
    if (!meta.help.empty()) {
      std::string help = meta.help;
      if (!meta.unit.empty()) help += " (unit: " + meta.unit + ")";
      out += "# HELP " + prom_name + " " + EscapeHelp(help) + "\n";
    }
    out += "# TYPE " + prom_name + " " + type + "\n";
  };
  for (const MetricsRegistry* registry : registries) {
    if (registry == nullptr) continue;
    for (const auto& [name, value] : registry->CounterValues()) {
      if (!seen.insert(name).second) continue;
      const std::string prom = SanitizeMetricName(name);
      emit_header(prom, registry->MetaFor(name), "counter");
      out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : registry->GaugeValues()) {
      if (!seen.insert(name).second) continue;
      const std::string prom = SanitizeMetricName(name);
      emit_header(prom, registry->MetaFor(name), "gauge");
      out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, snap] : registry->HistogramValues()) {
      if (!seen.insert(name).second) continue;
      const std::string prom = SanitizeMetricName(name);
      emit_header(prom, registry->MetaFor(name), "histogram");
      for (const CumulativeBucket& bucket : snap.CumulativeBuckets()) {
        out += prom + "_bucket{le=\"";
        AppendPrometheusValue(&out, bucket.le);
        out += "\"} " + std::to_string(bucket.count);
        // OpenMetrics exemplar: link the bucket to a trace that landed in
        // it. Exemplars are legal only on _bucket lines; the sum/count
        // series below never carry them.
        if (bucket.index < snap.exemplars.size() &&
            snap.exemplars[bucket.index].trace_id != 0) {
          const Exemplar& ex = snap.exemplars[bucket.index];
          out += " # {trace_id=\"" + TraceIdToHex(ex.trace_id) + "\"} ";
          AppendPrometheusValue(&out, ex.value);
          out += " ";
          AppendPrometheusValue(&out, ex.timestamp);
        }
        out += "\n";
      }
      out += prom + "_sum ";
      AppendPrometheusValue(&out, snap.sum);
      out += "\n";
      out += prom + "_count " + std::to_string(snap.count) + "\n";
    }
  }
  return out;
}

std::string RenderTracez(const SpanRing* ring, size_t limit,
                         uint64_t trace_id) {
  JsonWriter w;
  w.BeginObject();
  if (ring == nullptr) {
    w.Key("error").String("no span ring installed");
    w.Key("spans").BeginArray().EndArray();
    w.EndObject();
    return w.str();
  }
  std::vector<SpanEvent> spans;
  if (trace_id != 0) {
    // One request's tree: scan the whole retention window (a request's
    // spans may be far apart in recency) and put parents before children.
    for (const SpanEvent& e : ring->Latest(ring->capacity())) {
      if (e.trace_id == trace_id) spans.push_back(e);
    }
    std::sort(spans.begin(), spans.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.end_ns > b.end_ns;
              });
    if (spans.size() > limit) spans.resize(limit);
  } else {
    spans = ring->Latest(limit);
  }
  w.Key("retained_capacity").Uint(ring->capacity());
  w.Key("total_added").Uint(ring->total_added());
  w.Key("total_evicted").Uint(ring->total_evicted());
  w.Key("now_ns").Uint(TraceNowNanos());
  if (trace_id != 0) w.Key("trace_id").String(TraceIdToHex(trace_id));
  w.Key("spans").BeginArray();
  for (const SpanEvent& e : spans) {
    w.BeginObject();
    w.Key("name").String(e.name == nullptr ? "?" : e.name);
    w.Key("start_ns").Uint(e.start_ns);
    w.Key("end_ns").Uint(e.end_ns);
    w.Key("dur_us").Double(e.DurationMicros());
    w.Key("thread").Uint(e.thread_id);
    w.Key("depth").Uint(e.depth);
    if (e.trace_id != 0) w.Key("trace_id").String(TraceIdToHex(e.trace_id));
    w.Key("span_id").Uint(e.span_id);
    w.Key("parent_id").Uint(e.parent_id);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string RenderSlowz(const SlowLog* log, size_t limit) {
  JsonWriter w;
  w.BeginObject();
  if (log == nullptr) {
    w.Key("error").String("no slow log installed");
    w.Key("requests").BeginArray().EndArray();
    w.EndObject();
    return w.str();
  }
  w.Key("capacity").Uint(log->capacity());
  w.Key("total_added").Uint(log->total_added());
  w.Key("requests").BeginArray();
  for (const SlowRequestEntry& e : log->Latest(limit)) {
    w.BeginObject();
    w.Key("trace_id").String(TraceIdToHex(e.trace_id));
    w.Key("reason").String(TailReasonName(e.reason));
    w.Key("query").String(e.query);
    w.Key("version").Uint(e.version);
    w.Key("total_us").Double(e.total_us);
    w.Key("resolve_us").Double(e.resolve_us);
    w.Key("score_us").Double(e.score_us);
    w.Key("serialize_us").Double(e.serialize_us);
    w.Key("shed").Bool(e.shed);
    w.Key("degraded").Bool(e.degraded);
    w.Key("errored").Bool(e.errored);
    w.Key("end_ns").Uint(e.end_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string RenderSloz(const SloEngine* engine, const Watchdog* watchdog) {
  JsonWriter w;
  w.BeginObject();
  bool any_alerting = false;
  bool any_stalled = false;
  w.Key("objectives").BeginArray();
  if (engine != nullptr) {
    for (const SloStatus& s : engine->Check()) {
      any_alerting = any_alerting || s.alerting;
      w.BeginObject();
      w.Key("name").String(s.name);
      if (!s.description.empty()) w.Key("description").String(s.description);
      w.Key("target").Double(s.target);
      w.Key("window_seconds").Uint(s.window_seconds);
      w.Key("short_window_seconds").Uint(s.short_window_seconds);
      w.Key("burn_alert_threshold").Double(s.burn_alert_threshold);
      w.Key("good").Uint(s.good);
      w.Key("total").Uint(s.total);
      w.Key("burn_long").Double(s.burn_long);
      w.Key("burn_short").Double(s.burn_short);
      w.Key("alerting").Bool(s.alerting);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("pumps").BeginArray();
  if (watchdog != nullptr) {
    for (const PumpStatus& p : watchdog->Check()) {
      any_stalled = any_stalled || p.stalled;
      w.BeginObject();
      w.Key("name").String(p.name);
      w.Key("beats").Uint(p.beats);
      w.Key("stall_threshold_seconds").Double(p.stall_threshold_seconds);
      w.Key("age_seconds").Double(p.age_seconds);
      w.Key("stalled").Bool(p.stalled);
      w.EndObject();
    }
  }
  w.EndArray();
  w.Key("any_alerting").Bool(any_alerting);
  w.Key("any_stalled").Bool(any_stalled);
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// ExpositionServer
// ---------------------------------------------------------------------------

/// Socket + handoff-queue state, kept out of the header so expose.h stays
/// free of platform includes.
struct ExpositionServer::Listener {
  int fd = -1;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> pending;  // Accepted connection fds awaiting a handler.
  bool shutting_down = false;
};

ExpositionServer::ExpositionServer(ExpositionOptions options)
    : options_(std::move(options)) {
  if (options_.registries.empty()) {
    options_.registries.push_back(MetricsRegistry::Default());
  }
  if (options_.num_workers < 1) options_.num_workers = 1;
}

ExpositionServer::~ExpositionServer() { Stop(); }

Status ExpositionServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("exposition server already running");
  }
  auto listener = std::make_unique<Listener>();
  listener->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener->fd < 0) {
    return Status::Internal(std::string("socket(): ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listener->fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listener->fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listener->fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listener->fd);
    return Status::Internal("bind(" + options_.bind_address + ":" +
                               std::to_string(options_.port) + "): " + err);
  }
  if (::listen(listener->fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listener->fd);
    return Status::Internal("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener->fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listener->fd);
    return Status::Internal("getsockname(): " + err);
  }

  listener_ = std::move(listener);
  start_ns_ = TraceNowNanos();
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ExpositionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Closing the listening socket makes the blocked accept() return; the
  // acceptor then exits because running_ is false.
  ::shutdown(listener_->fd, SHUT_RDWR);
  ::close(listener_->fd);
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(listener_->mu);
    listener_->shutting_down = true;
  }
  listener_->cv.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Connections still queued were never picked up; close them cleanly.
  for (int fd : listener_->pending) ::close(fd);
  listener_->pending.clear();
  listener_.reset();
  port_.store(0, std::memory_order_release);
}

void ExpositionServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listener_->fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // Listener closed or broken beyond repair.
    }
    if (!OCT_FAILPOINT("obs.expose.accept").ok()) {
      ::close(fd);  // Injected accept failure: shed the connection.
      continue;
    }
    // IO timeouts so a stalled peer cannot pin a handler forever.
    timeval tv{};
    tv.tv_sec = static_cast<long>(options_.io_timeout_seconds);
    tv.tv_usec = static_cast<long>(
        (options_.io_timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(listener_->mu);
      if (listener_->pending.size() < options_.max_pending_connections) {
        listener_->pending.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      listener_->cv.notify_one();
    } else {
      // Queue full: shed load with an explicit 503 instead of letting the
      // kernel backlog time the scraper out invisibly.
      RejectedConnectionsCounter()->Increment();
      const std::string response =
          TextResponse(503, "exposition queue full\n");
      (void)!::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
      ::close(fd);
    }
  }
}

void ExpositionServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(listener_->mu);
      listener_->cv.wait(lock, [this] {
        return listener_->shutting_down || !listener_->pending.empty();
      });
      if (!listener_->pending.empty()) {
        fd = listener_->pending.front();
        listener_->pending.pop_front();
      } else if (listener_->shutting_down) {
        return;
      }
    }
    if (fd >= 0) ServeConnection(fd);
  }
}

void ExpositionServer::ServeConnection(int fd) const {
  std::string raw;
  std::string response;
  if (!OCT_FAILPOINT("obs.expose.read").ok()) {
    ::close(fd);  // Injected read failure: drop mid-request.
    return;
  }
  char buf[2048];
  bool oversized = false;
  while (raw.find("\r\n\r\n") == std::string::npos) {
    if (raw.size() > options_.max_request_bytes) {
      oversized = true;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Peer closed, timed out, or errored.
    raw.append(buf, static_cast<size_t>(n));
  }
  if (oversized) {
    BadRequestsCounter()->Increment();
    response = TextResponse(431, "request header block too large\n");
  } else if (raw.empty()) {
    ::close(fd);  // Connected and left without sending anything.
    return;
  } else {
    response = HandleRequest(raw);
  }
  size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::close(fd);
}

std::string ExpositionServer::HandleRequest(
    const std::string& raw_request) const {
  RequestsCounter()->Increment();
  if (raw_request.size() > options_.max_request_bytes) {
    BadRequestsCounter()->Increment();
    return TextResponse(431, "request header block too large\n");
  }
  const Result<HttpRequest> parsed = ParseHttpRequest(raw_request);
  if (!parsed.ok()) {
    BadRequestsCounter()->Increment();
    return TextResponse(400, parsed.status().ToString() + "\n");
  }
  if (parsed->method != "GET" && parsed->method != "HEAD") {
    BadRequestsCounter()->Increment();
    return TextResponse(405, "only GET is supported\n");
  }
  return RespondTo(*parsed);
}

std::string ExpositionServer::RespondTo(const HttpRequest& request) const {
  OCT_SPAN("obs/expose_request");
  if (request.path == "/metrics") {
    return MakeHttpResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                            RenderPrometheus(options_.registries));
  }
  if (request.path == "/varz") {
    // /varz merges like /metrics: one JSON document per registry under its
    // index, first registry first (names are disjoint in practice).
    if (options_.registries.size() == 1) {
      return JsonResponse(200, MetricsToJson(*options_.registries[0]));
    }
    JsonWriter w;
    w.BeginArray();
    for (const MetricsRegistry* registry : options_.registries) {
      if (registry != nullptr) w.Raw(MetricsToJson(*registry));
    }
    w.EndArray();
    return JsonResponse(200, w.str());
  }
  if (request.path == "/healthz") {
    HealthReport report;
    if (options_.health) report = options_.health();
    // Degraded is still 200: probes keep the instance in rotation while
    // the body flags it for operators and the smoke job.
    std::string body =
        !report.healthy ? "unhealthy" : (report.degraded ? "degraded" : "ok");
    if (!report.detail.empty()) body += ": " + report.detail;
    body += "\n";
    return TextResponse(report.healthy ? 200 : 503, body);
  }
  if (request.path == "/tracez") {
    const SpanRing* ring = options_.span_ring != nullptr ? options_.span_ring
                                                         : SpanRing::Global();
    const uint64_t trace_id =
        TraceIdFromHex(HttpQueryParam(request.query, "trace_id"));
    return JsonResponse(200,
                        RenderTracez(ring, options_.tracez_limit, trace_id));
  }
  if (request.path == "/slowz") {
    const SlowLog* log =
        options_.slow_log != nullptr ? options_.slow_log : SlowLog::Global();
    return JsonResponse(200, RenderSlowz(log, options_.slowz_limit));
  }
  if (request.path == "/sloz") {
    const SloEngine* engine =
        options_.slo != nullptr ? options_.slo : SloEngine::Global();
    const Watchdog* dog = options_.watchdog != nullptr ? options_.watchdog
                                                       : Watchdog::Global();
    return JsonResponse(200, RenderSloz(engine, dog));
  }
  if (request.path == "/statusz" || request.path == "/") {
    JsonWriter w;
    w.BeginObject();
    w.Key("server").String("oct exposition");
    w.Key("build").BeginObject();
#if defined(__VERSION__)
    w.Key("compiler").String(__VERSION__);
#endif
#if defined(NDEBUG)
    w.Key("assertions").Bool(false);
#else
    w.Key("assertions").Bool(true);
#endif
    w.Key("failpoints").Bool(OCT_FAILPOINTS_ENABLED != 0);
    // Whether perf_event_open works here — tells an operator at a glance
    // if the bench snapshots from this machine carry hardware counters.
    w.Key("perf_counters").Bool(util::PerfCounters::Supported());
    w.EndObject();
    w.Key("uptime_seconds")
        .Double(static_cast<double>(TraceNowNanos() - start_ns_) * 1e-9);
    w.Key("tracing_enabled").Bool(TracingEnabled());
    w.Key("endpoints").BeginArray();
    for (const char* e : {"/metrics", "/varz", "/healthz", "/tracez",
                          "/slowz", "/sloz", "/statusz"}) {
      w.String(e);
    }
    for (const ExpositionOptions::Endpoint& e : options_.extra_endpoints) {
      w.String(e.path);
    }
    w.EndArray();
    if (options_.status_json) {
      w.Key("app").Raw(options_.status_json());
    }
    w.EndObject();
    return JsonResponse(200, w.str());
  }
  for (const ExpositionOptions::Endpoint& endpoint :
       options_.extra_endpoints) {
    if (request.path == endpoint.path && endpoint.handler) {
      return endpoint.handler(request);
    }
  }
  return TextResponse(404, "no such endpoint: " + request.path + "\n");
}

// ---------------------------------------------------------------------------
// HttpGetLocal
// ---------------------------------------------------------------------------

Result<std::string> HttpGetLocal(int port, const std::string& path,
                                 double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") +
                               std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = static_cast<long>(timeout_seconds);
  tv.tv_usec = static_cast<long>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect(127.0.0.1:" + std::to_string(port) +
                               "): " + err);
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("send(): " + err);
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("recv(): " + err);
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (response.empty()) {
    return Status::Internal("empty response from 127.0.0.1:" +
                               std::to_string(port));
  }
  return response;
}

}  // namespace obs
}  // namespace oct
