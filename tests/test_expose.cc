// Exposition-server tests: Prometheus rendering + name sanitization, the
// SpanRing retention buffer, and loopback-socket integration — scraping
// /metrics under concurrent recording load (monotone counters, parseable
// output), /healthz flipping with the circuit breaker via failpoints,
// malformed/oversized request rejection, 503 shedding when the connection
// queue is full (the serving path's admission control: /route runs on these
// handler threads), and clean Stop() with connections mid-request. The whole file runs under TSan in CI (tools/run_sanitizers.sh
// runs the full ctest suite), which is the point: scrapes synchronize with
// nothing on the record path.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/failpoint.h"
#include "obs/expose.h"
#include "obs/metrics.h"
#include "obs/span_ring.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "paper_inputs.h"
#include "serve/exposition.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/timer.h"

namespace oct {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// A client socket connected to 127.0.0.1:port, with `timeout_seconds`
/// send/receive timeouts; -1 when the connect fails.
int ConnectLocal(int port, long timeout_seconds = 2) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{timeout_seconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

/// Everything read from `fd` until the server closes (or the receive
/// timeout); closes `fd`.
std::string ReadUntilClosed(int fd) {
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Sends raw bytes to 127.0.0.1:port and returns everything read until the
/// server closes (or a short timeout). Lets tests speak broken HTTP, which
/// HttpGetLocal refuses to.
std::string RawExchange(int port, const std::string& bytes) {
  const int fd = ConnectLocal(port);
  if (fd < 0) return "";
  SendAll(fd, bytes);
  return ReadUntilClosed(fd);
}

/// Body of an HTTP response (everything after the blank line).
std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Minimal Prometheus text-format 0.0.4 line checker: every non-empty line
/// is either a # comment or `name[{labels}] value`, names in
/// [a-zA-Z_:][a-zA-Z0-9_:]*, value a number or +Inf/-Inf/NaN. Returns the
/// first offending line ("" when the document is clean).
std::string FirstInvalidPrometheusLine(const std::string& text) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t i = 0;
    const auto name_start = [&](char c) {
      return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
             c == ':';
    };
    const auto name_char = [&](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == ':';
    };
    if (!name_start(line[0])) return line;
    while (i < line.size() && name_char(line[i])) ++i;
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) return line;
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return line;
    const std::string value = line.substr(i + 1);
    if (value.empty()) return line;
    if (value == "+Inf" || value == "-Inf" || value == "NaN") continue;
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    if (parse_end == nullptr || *parse_end != '\0') return line;
  }
  return "";
}

/// Value of a plain `name value` sample in a Prometheus document; -1 when
/// the series is absent.
double SampleValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, needle.size(), needle) == 0) {
      return std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    pos = end + 1;
  }
  return -1.0;
}

// ---------------------------------------------------------------------------
// Parsing + rendering units
// ---------------------------------------------------------------------------

TEST(ParseHttpRequest, AcceptsWellFormedGet) {
  const auto r = ParseHttpRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method, "GET");
  EXPECT_EQ(r->path, "/metrics");
}

TEST(ParseHttpRequest, StripsQueryString) {
  const auto r = ParseHttpRequest("GET /tracez?limit=10 HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->path, "/tracez");
}

TEST(ParseHttpRequest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseHttpRequest("").ok());
  EXPECT_FALSE(ParseHttpRequest("GARBAGE\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /metrics\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /metrics SMTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET metrics HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest(" GET /x HTTP/1.1\r\n\r\n").ok());
}

TEST(SanitizeMetricName, MapsToPrometheusCharset) {
  EXPECT_EQ(SanitizeMetricName("serve.p99_us"), "serve_p99_us");
  EXPECT_EQ(SanitizeMetricName("a-b c"), "a_b_c");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("already_fine:x"), "already_fine:x");
}

TEST(RenderPrometheus, EmitsTypedSeriesWithHelp) {
  MetricsRegistry registry;
  registry.GetCounter("test.requests", "Requests observed")->Increment(3);
  registry.GetGauge("test.depth")->Set(-2);
  Histogram* h = registry.GetHistogram("test.lat", "Latency", "us");
  h->Record(0.5);
  h->Record(3.0);
  h->Record(500.0);

  const std::string text = RenderPrometheus({&registry});
  EXPECT_EQ(FirstInvalidPrometheusLine(text), "");
  EXPECT_NE(text.find("# HELP test_requests Requests observed"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_requests counter"), std::string::npos);
  EXPECT_NE(text.find("test_requests 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("test_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("(unit: us)"), std::string::npos);
  EXPECT_NE(text.find("test_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_lat_count 3"), std::string::npos);
}

TEST(RenderPrometheus, HistogramBucketsAreCumulativeAndMonotone) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("cum.lat");
  for (double v : {0.5, 1.5, 1.7, 100.0, 1e18}) h->Record(v);
  const auto snap = h->Snapshot();
  const auto buckets = snap.CumulativeBuckets();
  ASSERT_GE(buckets.size(), 2u);
  uint64_t last = 0;
  for (const auto& bucket : buckets) {
    EXPECT_GE(bucket.count, last);
    last = bucket.count;
  }
  EXPECT_TRUE(std::isinf(buckets.back().le));
  EXPECT_EQ(buckets.back().count, snap.count);
  // 1e18 lands beyond every finite bucket bound: only +Inf may claim it.
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_LT(buckets[buckets.size() - 2].count, snap.count);
}

TEST(RenderPrometheus, FirstRegistryWinsOnDuplicateNames) {
  MetricsRegistry first;
  MetricsRegistry second;
  first.GetCounter("dup.name")->Increment(1);
  second.GetCounter("dup.name")->Increment(99);
  second.GetCounter("only.second")->Increment(7);
  const std::string text = RenderPrometheus({&first, &second});
  EXPECT_EQ(SampleValue(text, "dup_name"), 1.0);
  EXPECT_EQ(SampleValue(text, "only_second"), 7.0);
}

// ---------------------------------------------------------------------------
// SpanRing
// ---------------------------------------------------------------------------

TEST(SpanRing, WrapAroundKeepsNewestAndCountsEvictions) {
  Counter* evicted_counter =
      MetricsRegistry::Default()->GetCounter("obs.spans_evicted");
  const uint64_t evicted_before = evicted_counter->Value();

  SpanRing ring(16);  // 8 shards x 2 slots; one thread writes one shard.
  std::vector<SpanEvent> events(100);
  for (uint64_t i = 0; i < events.size(); ++i) {
    events[i] = {"span", i, i + 1, 0, 0};
    ring.Add(events[i]);
  }
  EXPECT_EQ(ring.total_added(), 100u);
  EXPECT_EQ(ring.total_evicted(), 98u);  // Single shard holds 2 of 100.
  EXPECT_EQ(evicted_counter->Value() - evicted_before, 98u);

  const auto latest = ring.Latest(10);
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest[0].end_ns, 100u);  // Newest first.
  EXPECT_EQ(latest[1].end_ns, 99u);
}

TEST(SpanRing, LatestTruncatesToRequestedCount) {
  SpanRing ring(64);
  for (uint64_t i = 0; i < 20; ++i) ring.Add({"s", i, i + 1, 0, 0});
  EXPECT_EQ(ring.Latest(5).size(), 5u);
  EXPECT_EQ(ring.Latest(5)[0].end_ns, 20u);
}

TEST(SpanRing, ConcurrentAddAndLatestAreClean) {
  SpanRing ring(128);
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&ring, &done] {
      uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        ring.Add({"w", i, i + 1, 0, 0});
        ++i;
      }
    });
  }
  // Keep reading until the writers have demonstrably wrapped the ring a
  // few times; on a single core this also forces reader/writer interleaving
  // rather than racing a fixed read count against thread startup.
  while (ring.total_added() < 1000) {
    const auto spans = ring.Latest(64);
    EXPECT_LE(spans.size(), 64u);
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  EXPECT_GT(ring.total_added(), 1000u);
}

// ---------------------------------------------------------------------------
// Server integration (loopback sockets)
// ---------------------------------------------------------------------------

TEST(ExpositionServer, ServesEveryEndpointOnLoopback) {
  MetricsRegistry registry;
  registry.GetCounter("it.counter", "integration counter")->Increment(5);
  SpanRing ring(64);
  ring.Add({"it/span", 10, 20, 0, 1});

  ExpositionOptions options;
  options.registries = {&registry};
  options.span_ring = &ring;
  bool healthy = true;
  options.health = [&healthy] {
    return HealthReport{healthy, healthy ? "fine" : "broken"};
  };
  options.status_json = [] { return std::string("{\"k\":1}"); };
  ExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto metrics = HttpGetLocal(server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("200 OK"), std::string::npos);
  EXPECT_EQ(SampleValue(BodyOf(*metrics), "it_counter"), 5.0);

  auto varz = HttpGetLocal(server.port(), "/varz");
  ASSERT_TRUE(varz.ok());
  EXPECT_NE(varz->find("\"it.counter\":5"), std::string::npos);

  auto healthz = HttpGetLocal(server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz->find("200 OK"), std::string::npos);
  EXPECT_NE(healthz->find("ok: fine"), std::string::npos);
  healthy = false;
  healthz = HttpGetLocal(server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz->find("503"), std::string::npos);
  EXPECT_NE(healthz->find("unhealthy: broken"), std::string::npos);

  auto tracez = HttpGetLocal(server.port(), "/tracez");
  ASSERT_TRUE(tracez.ok());
  EXPECT_NE(tracez->find("\"it/span\""), std::string::npos);

  auto statusz = HttpGetLocal(server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz->find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(statusz->find("\"app\":{\"k\":1}"), std::string::npos);
  // The build object always says whether hardware counters work here.
  EXPECT_NE(statusz->find("\"perf_counters\":"), std::string::npos);

  auto missing = HttpGetLocal(server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

TEST(ExpositionServer, ScrapeUnderConcurrentLoadStaysParseableAndMonotone) {
  MetricsRegistry registry;
  ExpositionOptions options;
  options.registries = {&registry};
  ExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> running{0};
  std::vector<std::thread> load;
  for (int w = 0; w < 3; ++w) {
    load.emplace_back([&registry, &done, &running] {
      Counter* counter = registry.GetCounter("load.ops", "ops under load");
      Histogram* lat = registry.GetHistogram("load.lat_us", "fake", "us");
      uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        counter->Increment();
        lat->Record(static_cast<double>(i % 1000));
        if (i++ == 0) running.fetch_add(1);
      }
    });
  }
  // Scrape only once every load thread has counted, so the 25 scrapes
  // cannot all finish before the load starts on a busy machine.
  while (running.load() < 3) std::this_thread::yield();

  double last_ops = -1.0;
  for (int scrape = 0; scrape < 25; ++scrape) {
    const auto response = HttpGetLocal(server.port(), "/metrics");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const std::string body = BodyOf(*response);
    EXPECT_EQ(FirstInvalidPrometheusLine(body), "") << "scrape " << scrape;
    const double ops = SampleValue(body, "load_ops");
    if (ops >= 0) {
      EXPECT_GE(ops, last_ops) << "counter went backwards";
      last_ops = ops;
    }
  }
  EXPECT_GT(last_ops, 0.0);

  done.store(true, std::memory_order_release);
  for (auto& t : load) t.join();
  server.Stop();
}

TEST(ExpositionServer, RejectsMalformedOversizedAndWrongMethodRequests) {
  ExpositionOptions options;
  options.max_request_bytes = 512;
  ExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_NE(RawExchange(server.port(), "GARBAGE\r\n\r\n").find("400"),
            std::string::npos);
  EXPECT_NE(
      RawExchange(server.port(), "POST /metrics HTTP/1.1\r\n\r\n").find("405"),
      std::string::npos);
  const std::string oversized = "GET /metrics HTTP/1.1\r\nX-Junk: " +
                                std::string(4096, 'j') + "\r\n\r\n";
  EXPECT_NE(RawExchange(server.port(), oversized).find("431"),
            std::string::npos);

  // The server survives abuse and keeps answering.
  const auto ok = HttpGetLocal(server.port(), "/healthz");
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(ok->find("200 OK"), std::string::npos);
  server.Stop();
}

TEST(ExpositionServer, StopsCleanlyWithInFlightConnections) {
  ExpositionOptions options;
  options.io_timeout_seconds = 0.2;  // Bound the worker's blocking read.
  ExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // A client that connects, sends half a request, and goes silent.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "GET /metr";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  Timer stop_timer;
  server.Stop();
  EXPECT_LT(stop_timer.ElapsedSeconds(), 3.0) << "Stop() hung on a stalled "
                                                 "connection";
  ::close(fd);
}

TEST(ExpositionServer, FullConnectionQueueShedsWith503AndNeverStalls) {
  // One handler thread and one queue slot; the /block handler holds its
  // thread until the test releases it.
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> entered{0};
  ExpositionOptions options;
  options.num_workers = 1;
  options.max_pending_connections = 1;
  options.extra_endpoints.push_back(
      {"/block", [&](const HttpRequest&) {
         entered.fetch_add(1);
         std::unique_lock<std::mutex> lock(mu);
         cv.wait(lock, [&] { return released; });
         return MakeHttpResponse(200, "text/plain", "released\n");
       }});
  const auto release = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  };
  ExpositionServer server(options);
  // Destroyed before the server: a failed assertion still releases the
  // handler, so the server's Stop() can join it.
  struct ReleaseOnExit {
    std::function<void()> run;
    ~ReleaseOnExit() { run(); }
  } release_on_exit{release};
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  Counter* rejected = MetricsRegistry::Default()->GetCounter(
      "obs.expose.rejected_connections");
  const uint64_t rejected_before = rejected->Value();
  const std::string block_request = "GET /block HTTP/1.1\r\n\r\n";

  // The first request occupies the only handler...
  const int first = ConnectLocal(port, /*timeout_seconds=*/30);
  ASSERT_GE(first, 0);
  SendAll(first, block_request);
  Timer wait;
  while (entered.load() < 1 && wait.ElapsedSeconds() < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(entered.load(), 1);
  // ...the second fills the queue slot. Connections are accepted in
  // connect order, so it is queued before any of the ones below arrive.
  const int second = ConnectLocal(port, /*timeout_seconds=*/30);
  ASSERT_GE(second, 0);
  SendAll(second, block_request);

  // Every connection beyond the queue is answered 503 at once; none
  // waits for the blocked handler. They send nothing, so the server's
  // close never races unread request bytes.
  constexpr int kOverflow = 5;
  double slowest = 0.0;
  for (int i = 0; i < kOverflow; ++i) {
    Timer timer;
    const int fd = ConnectLocal(port, /*timeout_seconds=*/5);
    ASSERT_GE(fd, 0);
    const std::string response = ReadUntilClosed(fd);
    slowest = std::max(slowest, timer.ElapsedSeconds());
    EXPECT_NE(response.find("503 Service Unavailable"), std::string::npos)
        << i << ": " << response;
    EXPECT_NE(response.find("exposition queue full"), std::string::npos)
        << i << ": " << response;
  }
  EXPECT_LT(slowest, 1.0) << "a shed connection waited on the handler";
  EXPECT_EQ(rejected->Value() - rejected_before,
            static_cast<uint64_t>(kOverflow));
  EXPECT_EQ(entered.load(), 1);

  // Released, both admitted requests are answered.
  release();
  for (const int fd : {first, second}) {
    const std::string response = ReadUntilClosed(fd);
    EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("released"), std::string::npos) << response;
  }
  EXPECT_EQ(entered.load(), 2);
  server.Stop();
}

TEST(ExpositionServer, RestartsAfterStop) {
  ExpositionServer server(ExpositionOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // Double-start refused.
  const int first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  server.Stop();  // Idempotent.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  const auto response = HttpGetLocal(server.port(), "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("200 OK"), std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Tracing, tail-sampling, and SLO endpoints
// ---------------------------------------------------------------------------

TEST(RenderTracez, TraceIdFilterReturnsOneTraceSortedByStart) {
  SpanRing ring(64);
  // Two interleaved traces; trace 42's spans arrive out of start order.
  ring.Add({"t42/late", 500, 900, 1, 1, 42, 101, 100});
  ring.Add({"t7/only", 0, 100, 0, 2, 7, 201, 0});
  ring.Add({"t42/root", 0, 1000, 0, 1, 42, 100, 0});

  const std::string all = RenderTracez(&ring, 64);
  EXPECT_NE(all.find("t42/root"), std::string::npos);
  EXPECT_NE(all.find("t7/only"), std::string::npos);

  const std::string filtered = RenderTracez(&ring, 64, 42);
  EXPECT_NE(filtered.find("t42/root"), std::string::npos);
  EXPECT_NE(filtered.find("t42/late"), std::string::npos);
  EXPECT_EQ(filtered.find("t7/only"), std::string::npos);
  // The filtered view is the span tree sorted by start time: the root
  // (start 0) renders before the child (start 500), and the response
  // echoes which trace it reassembled.
  EXPECT_LT(filtered.find("t42/root"), filtered.find("t42/late"));
  EXPECT_NE(filtered.find("\"trace_id\":\"" + TraceIdToHex(42) + "\""),
            std::string::npos);
}

TEST(RenderPrometheus, HistogramExemplarRendersOpenMetricsTrailer) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("ex.us", "exemplar histogram");
  hist->Record(5.0);
  hist->RecordWithExemplar(100.0, 0xabc123ULL);
  const std::string text = RenderPrometheus({&registry});
  // A bucket line carries the OpenMetrics trailer linking to the trace.
  const std::string trailer =
      " # {trace_id=\"" + TraceIdToHex(0xabc123ULL) + "\"} 100";
  EXPECT_NE(text.find(trailer), std::string::npos) << text;
  // The trailer sits on a _bucket sample, not on _sum/_count.
  const size_t pos = text.find(trailer);
  const size_t line_start = text.rfind('\n', pos) + 1;
  EXPECT_EQ(text.compare(line_start, 13, "ex_us_bucket{"), 0) << text;
}

TEST(ExpositionServer, HealthzDegradedStaysIn200Rotation) {
  ExpositionOptions options;
  options.health = [] {
    HealthReport report;
    report.healthy = true;
    report.degraded = true;
    report.detail = "slo router.latency burning";
    return report;
  };
  ExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const auto response = HttpGetLocal(server.port(), "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("200 OK"), std::string::npos);
  EXPECT_NE(response->find("degraded: slo router.latency burning"),
            std::string::npos);
  server.Stop();
}

TEST(ExpositionServer, ServesSlowzSlozAndTracezFilterOnLoopback) {
  SpanRing ring(64);
  ring.Add({"req/score", 100, 4000, 1, 1, 0xbeef, 11, 10});
  ring.Add({"other/span", 0, 50, 0, 1, 0x1234, 21, 0});

  SlowLog slow_log(16);
  SlowRequestEntry entry;
  entry.trace_id = 0xbeef;
  entry.query = "red shoes size 9";
  entry.version = 3;
  entry.reason = TailReason::kSlow;
  entry.total_us = 8200.0;
  entry.score_us = 7000.0;
  slow_log.Add(entry);

  SloEngine slo;
  SloObjectiveSpec spec;
  spec.name = "it.latency";
  spec.description = "integration latency objective";
  spec.target = 0.9;
  spec.latency_threshold_us = 1000.0;
  slo.AddObjective(spec);
  for (int i = 0; i < 20; ++i) slo.RecordLatency("it.latency", 5000.0);

  Watchdog watchdog;
  watchdog.RegisterPump("it.pump", /*stall_threshold_seconds=*/30.0);
  watchdog.Beat("it.pump");

  ExpositionOptions options;
  options.span_ring = &ring;
  options.slow_log = &slow_log;
  options.slo = &slo;
  options.watchdog = &watchdog;
  ExpositionServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // /slowz: the retained bad request with its trace link and breakdown.
  auto slowz = HttpGetLocal(server.port(), "/slowz");
  ASSERT_TRUE(slowz.ok());
  EXPECT_NE(slowz->find("200 OK"), std::string::npos);
  EXPECT_NE(slowz->find("red shoes size 9"), std::string::npos);
  EXPECT_NE(slowz->find("\"reason\":\"slow\""), std::string::npos);
  EXPECT_NE(slowz->find(TraceIdToHex(0xbeef)), std::string::npos);

  // /sloz: burning objective (all samples bad, burn 10x budget) + pump.
  auto sloz = HttpGetLocal(server.port(), "/sloz");
  ASSERT_TRUE(sloz.ok());
  EXPECT_NE(sloz->find("\"it.latency\""), std::string::npos);
  EXPECT_NE(sloz->find("\"alerting\":true"), std::string::npos);
  EXPECT_NE(sloz->find("\"it.pump\""), std::string::npos);

  // /tracez?trace_id= narrows to the one request's span tree.
  auto tracez = HttpGetLocal(
      server.port(), "/tracez?trace_id=" + TraceIdToHex(0xbeef));
  ASSERT_TRUE(tracez.ok());
  EXPECT_NE(tracez->find("req/score"), std::string::npos);
  EXPECT_EQ(tracez->find("other/span"), std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace obs

// ---------------------------------------------------------------------------
// Serving-stack wiring
// ---------------------------------------------------------------------------

namespace serve {
namespace {

using testing_inputs::Figure2Input;

TEST(ServingExposition, DisabledByDefaultAndStartIsANoOp) {
  TreeStore store;
  ServingExposition exposition(&store, nullptr, nullptr);
  EXPECT_TRUE(exposition.Start().ok());
  EXPECT_FALSE(exposition.running());
  EXPECT_EQ(exposition.port(), 0);
}

TEST(ServingExposition, HealthTracksSnapshotAvailability) {
  TreeStore store;
  ServingExposition exposition(&store, nullptr, nullptr);
  EXPECT_FALSE(exposition.Health().healthy);  // Nothing published yet.
  store.Publish(CategoryTree());
  EXPECT_TRUE(exposition.Health().healthy);
}

TEST(ServingExposition, SloBurnAndPumpStallFlipHealthToDegraded) {
  TreeStore store;
  store.Publish(CategoryTree());
  ExpositionOptions options;
  options.pump_stall_seconds = 0.02;
  ServingExposition exposition(&store, nullptr, nullptr, options);
  ASSERT_TRUE(exposition.Health().healthy);
  EXPECT_FALSE(exposition.Health().degraded);

  // Violate the route-latency objective the exposition declared: every
  // sample lands far past the threshold, burning the budget in both
  // windows.
  obs::SloEngine* slo = obs::SloEngine::Global();
  ASSERT_NE(slo, nullptr);  // Installed by the exposition at ctor.
  for (int i = 0; i < 50; ++i) slo->RecordLatency("router.latency", 1e7);
  obs::HealthReport report = exposition.Health();
  EXPECT_TRUE(report.healthy);  // Degraded stays in rotation.
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.detail.find("slo router.latency burning"),
            std::string::npos)
      << report.detail;

  // A pump that beats once and then goes quiet past its threshold is
  // stalled, and health says which one.
  obs::WatchdogBeat("delta.maintainer");
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  report = exposition.Health();
  EXPECT_TRUE(report.degraded);
  EXPECT_NE(report.detail.find("pump delta.maintainer stalled"),
            std::string::npos)
      << report.detail;
}

TEST(ServingExposition, HealthzFlipsWithCircuitBreaker) {
  auto* registry = fault::FailPointRegistry::Default();
  if (std::getenv("OCT_FAILPOINTS") != nullptr) {
    GTEST_SKIP() << "environment failpoint schedule would perturb the "
                    "deterministic breaker phases";
  }
  registry->DisarmAll();

  data::Dataset dataset;
  TreeStore store;
  ServeStats stats;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  ThreadPool pool(2);
  RebuildPolicy policy;
  policy.max_retries = 0;
  policy.breaker_failure_threshold = 2;
  policy.breaker_cooldown_seconds = 0.02;
  RebuildScheduler scheduler(&store, &stats, &dataset, sim, policy, &pool);

  ExpositionOptions options;
  options.enabled = true;
  ServingExposition exposition(&store, &scheduler, &stats, options);
  ASSERT_TRUE(exposition.Start().ok());
  const int port = exposition.port();

  // Phase 0: nothing published — unhealthy before the bootstrap.
  auto response = obs::HttpGetLocal(port, "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("503"), std::string::npos);
  EXPECT_NE(response->find("no snapshot published"), std::string::npos);

  ASSERT_TRUE(scheduler.RebuildNow(Figure2Input()).published);
  response = obs::HttpGetLocal(port, "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("200 OK"), std::string::npos);

  // Phase 1: rebuilds fail until the breaker opens; health goes 503 even
  // though readers still get the last good snapshot.
  ASSERT_TRUE(registry->Arm("serve.rebuild", "error").ok());
  OctInput drift(20);
  drift.Add(ItemSet({10, 11, 12}), 2.0, "joggers");
  drift.Add(ItemSet({13, 14, 15, 16}), 1.0, "windbreakers");
  for (int i = 0;
       i < 10 && scheduler.circuit_state() != CircuitState::kOpen; ++i) {
    scheduler.OfferBatch(drift);
    scheduler.WaitForRebuild();
  }
  ASSERT_EQ(scheduler.circuit_state(), CircuitState::kOpen);
  response = obs::HttpGetLocal(port, "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("503"), std::string::npos);
  EXPECT_NE(response->find("breaker open"), std::string::npos);

  // /metrics keeps rendering the merged registries while unhealthy, and
  // the serve.* series come from the per-instance ServeStats registry.
  const auto metrics = obs::HttpGetLocal(port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("serve_breaker_state 1"), std::string::npos);
  EXPECT_NE(metrics->find("serve_publishes"), std::string::npos);

  // Phase 2: fault clears; after the cooldown a rebuild closes the breaker
  // and health recovers.
  registry->DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  scheduler.OfferBatch(drift);
  scheduler.WaitForRebuild();
  ASSERT_EQ(scheduler.circuit_state(), CircuitState::kClosed);
  response = obs::HttpGetLocal(port, "/healthz");
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->find("200 OK"), std::string::npos);
  EXPECT_NE(response->find("breaker closed"), std::string::npos);

  exposition.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace oct
