// Router serving benchmark: a Zipf-weighted query mix from dataset B driven
// through Router::Route, which resolves and scores on the calling thread.
//
//   1. Closed loop — N client threads, each blocking on Route(); sweeps the
//      client count and reports routed qps + p50/p99 latency.
//   2. Tracing overhead — the always-on trace-context propagation cost
//      (mint + scope install + inactive spans + no-op finish) measured
//      directly in ns/request, plus closed-loop means with and without a
//      TailSampler installed. The propagation cost exceeding 3% of the
//      measured mean route latency is a hard failure: request tracing must
//      be cheap enough to leave on everywhere.
//
// Before any load, every ranking is checked against the serial single-query
// oracle (RouteSerial) on >= 1000 sampled queries; any divergence is a hard
// failure (exit 1). Route() adds admission, accounting and tracing around
// the same resolve and score, never an answer change. The router keeps no
// queue of its own; the shed-never-stalls property of the serving path is
// the exposition's bounded connection queue, checked in
// tests/test_expose.cc.
//
//   $ ./build/bench/router_closed_loop
//
// Env knobs:
//   OCT_ROUTER_SECONDS  per-phase duration (default 0.4)
//   OCT_ROUTER_ORACLE   oracle sample size (default 1000)
//   OCT_ROUTER_STRICT   1 -> also hard-fail the throughput/latency targets
//                       (>= 50k qps, p99 < 5 ms below saturation); off by
//                       default so shared/single-core CI boxes gate only on
//                       the correctness properties.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/datasets.h"
#include "data/query_log.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "router/router.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace oct;

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value ? static_cast<size_t>(std::strtoull(value, nullptr, 10))
               : fallback;
}

double EnvSeconds(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const double parsed = std::strtod(value, nullptr);
  return parsed > 0 ? parsed : fallback;
}

/// The query mix: distinct logged queries sampled Zipf-by-popularity, the
/// shape a live search box actually sees (a few head queries dominate).
struct QueryMix {
  std::vector<data::Query> queries;  // Distinct, popularity rank order.
  ZipfSampler sampler;

  QueryMix(std::vector<data::Query> q, double zipf_exponent)
      : queries(std::move(q)), sampler(queries.size(), zipf_exponent) {}

  const data::Query& Draw(Rng* rng) const {
    return queries[sampler.Sample(rng)];
  }
};

QueryMix BuildMix(const data::Catalog& catalog, size_t distinct) {
  data::QueryLogOptions options;
  options.num_queries = distinct;
  options.seed = 20240806;
  std::vector<data::LoggedQuery> log =
      data::GenerateQueryLog(catalog, options);
  // Rank by observed popularity so the Zipf sampler's rank 0 is the true
  // head query of the generated log.
  std::sort(log.begin(), log.end(),
            [](const data::LoggedQuery& a, const data::LoggedQuery& b) {
              return a.AverageDaily() > b.AverageDaily();
            });
  std::vector<data::Query> queries;
  queries.reserve(log.size());
  for (auto& entry : log) queries.push_back(std::move(entry.query));
  return QueryMix(std::move(queries), options.zipf_exponent);
}

bool SameRanking(const router::RouteResult& a, const router::RouteResult& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.ranked.size() != b.ranked.size()) return false;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].node != b.ranked[i].node) return false;
    if (a.ranked[i].jaccard != b.ranked[i].jaccard) return false;
    if (a.ranked[i].path != b.ranked[i].path) return false;
  }
  return true;
}

struct ClosedLoopResult {
  size_t clients = 0;
  uint64_t completed = 0;
  double seconds = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t degraded = 0;

  double Qps() const { return seconds > 0 ? completed / seconds : 0; }
};

/// The cost a request pays for tracing even when nothing goes wrong: mint a
/// context at ingress, install it on the worker, open/close a span, finish
/// the trace. With no TailSampler installed every step is the no-op path —
/// the price of leaving propagation on unconditionally. With one installed
/// it is the record-then-discard path (the common case under tail
/// sampling: the request was fine, its pending spans are dropped).
double MeasurePropagationNs(size_t iters) {
  Timer t;
  for (size_t i = 0; i < iters; ++i) {
    const obs::TraceContext ctx = obs::StartRequestTrace();
    {
      obs::TraceContextScope scope(ctx);
      OCT_SPAN("bench/route");
    }
    obs::TraceFinish fin;
    fin.total_us = 1.0;  // Fast request: the discard verdict.
    obs::FinishRequestTrace(ctx, fin);
  }
  return t.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

ClosedLoopResult RunClosedLoop(router::Router& router, const QueryMix& mix,
                               size_t clients, double seconds) {
  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::vector<uint64_t> counts(clients, 0);
  std::vector<uint64_t> degraded(clients, 0);
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      started.fetch_add(1);
      Rng rng(77 + c);
      auto& lat = latencies[c];
      lat.reserve(1 << 14);
      while (!done.load(std::memory_order_acquire)) {
        router::RouteRequest request;
        request.query = mix.Draw(&rng);
        Timer op;
        const router::RouteResult result = router.Route(std::move(request));
        lat.push_back(op.ElapsedSeconds() * 1e6);
        if (result.degraded) ++degraded[c];
        ++counts[c];
      }
    });
  }
  while (started.load() < clients) std::this_thread::yield();
  Timer phase;
  while (phase.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  ClosedLoopResult result;
  result.clients = clients;
  result.seconds = phase.ElapsedSeconds();
  std::vector<double> all;
  for (size_t c = 0; c < clients; ++c) {
    result.completed += counts[c];
    result.degraded += degraded[c];
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  // Client-observed route latency feeds the bench-history regression gate.
  static obs::Histogram* route_us =
      obs::MetricsRegistry::Default()->GetHistogram("bench.route_us");
  for (double us : all) route_us->Record(us);
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    double sum = 0.0;
    for (double us : all) sum += us;
    result.mean_us = sum / static_cast<double>(all.size());
    result.p50_us = all[all.size() / 2];
    result.p99_us = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return result;
}

}  // namespace

int main() {
  const double seconds = EnvSeconds("OCT_ROUTER_SECONDS", 0.4);
  const size_t oracle_samples =
      std::max<size_t>(1000, EnvSize("OCT_ROUTER_ORACLE", 1000));
  const bool strict = EnvSize("OCT_ROUTER_STRICT", 0) != 0;

  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  data::Dataset ds = data::MakeDataset('B', sim);
  bench::PrintHeader("router closed loop (query -> category routing)", ds);

  serve::TreeStore store(/*retain=*/2);
  serve::ServeStats serve_stats;
  serve::RebuildScheduler scheduler(&store, &serve_stats, &ds, sim);
  const serve::RebuildOutcome boot = scheduler.RebuildNow(ds.input);
  if (!boot.published) {
    std::printf("FAIL: bootstrap publish failed: %s\n",
                boot.status.ToString().c_str());
    return 1;
  }
  std::printf("published v%llu: %zu categories (build %.3f s)\n",
              static_cast<unsigned long long>(boot.published_version),
              store.Current()->num_categories(), boot.seconds);

  router::Router router(&store, ds.engine.get());
  router.Start();

  const QueryMix mix = BuildMix(*ds.catalog, /*distinct=*/600);
  std::printf("query mix: %zu distinct Zipf-weighted queries\n\n",
              mix.queries.size());

  // --- Hard gate: Route() == serial oracle. -------------------------------
  {
    Rng rng(9001);
    size_t mismatches = 0;
    Timer oracle_timer;
    for (size_t i = 0; i < oracle_samples; ++i) {
      router::RouteRequest request;
      request.query = mix.Draw(&rng);
      const router::RouteResult serial = router.RouteSerial(request);
      const router::RouteResult routed = router.Route(request);
      if (!SameRanking(serial, routed)) ++mismatches;
    }
    std::printf("oracle check: %zu queries, %zu mismatches (%.3f s)\n",
                oracle_samples, mismatches, oracle_timer.ElapsedSeconds());
    if (mismatches != 0) {
      std::printf("FAIL: Route() diverged from the serial oracle\n");
      return 1;
    }
  }

  // --- Closed loop: client-count sweep. ----------------------------------
  TableWriter closed({"clients", "routed", "qps", "p50 us", "p99 us",
                      "degraded"});
  double peak_qps = 0.0;
  double below_saturation_p99_us = 0.0;
  double route_mean_us = 0.0;
  {
    bench::PerfPhase perf("closed_loop_sweep");
    for (size_t clients : {1, 2, 4, 8}) {
      const ClosedLoopResult r = RunClosedLoop(router, mix, clients, seconds);
      if (r.Qps() > peak_qps) peak_qps = r.Qps();
      if (clients == 1) {
        below_saturation_p99_us = r.p99_us;
        route_mean_us = r.mean_us;
      }
      closed.AddRow({std::to_string(r.clients), std::to_string(r.completed),
                     TableWriter::Num(r.Qps(), 0),
                     TableWriter::Num(r.p50_us, 1),
                     TableWriter::Num(r.p99_us, 1),
                     std::to_string(r.degraded)});
    }
  }
  bench::BenchReport::Get().AddTable("router_closed_loop", closed);
  std::printf("closed loop (%0.1f s per point):\n%s\n", seconds,
              closed.ToAligned().c_str());

  std::printf("router stats: %s\n",
              router.stats().Snapshot().ToString().c_str());

  // --- Tracing overhead: propagation microbench + sampled closed loop. ---
  // The gate is on the *always-on* cost (no sampler installed): that is
  // what every request pays forever. The sampled numbers are informational
  // — tail sampling is the record-then-discard path and its cost shows up
  // honestly in the closed-loop mean delta.
  double propagation_ns = 0.0;
  double overhead_pct = 0.0;
  {
    bench::PerfPhase perf("tracing_overhead");
    const size_t iters = 200000;
    propagation_ns = MeasurePropagationNs(iters);
    obs::SlowLog slow_log(64);
    obs::TailSampler sampler;
    obs::TailSampler::InstallGlobal(&sampler);
    obs::SlowLog::InstallGlobal(&slow_log);
    const double sampled_ns = MeasurePropagationNs(iters);
    const ClosedLoopResult sampled_run =
        RunClosedLoop(router, mix, /*clients=*/2, seconds);
    obs::TailSampler::InstallGlobal(nullptr);
    obs::SlowLog::InstallGlobal(nullptr);
    const ClosedLoopResult plain_run =
        RunClosedLoop(router, mix, /*clients=*/2, seconds);

    overhead_pct = route_mean_us > 0
                       ? 100.0 * (propagation_ns * 1e-3) / route_mean_us
                       : 0.0;
    TableWriter tracing({"mode", "ns/request", "closed-loop mean us"});
    tracing.AddRow({"unsampled", TableWriter::Num(propagation_ns, 1),
                    TableWriter::Num(plain_run.mean_us, 1)});
    tracing.AddRow({"tail-sampled", TableWriter::Num(sampled_ns, 1),
                    TableWriter::Num(sampled_run.mean_us, 1)});
    bench::BenchReport::Get().AddTable("router_tracing_overhead", tracing);
    std::printf("tracing overhead:\n%s\n", tracing.ToAligned().c_str());
    std::printf("propagation %.1f ns/request = %.2f%% of mean route latency "
                "(%.1f us)\n\n",
                propagation_ns, overhead_pct, route_mean_us);
  }
  router.Stop();

  // --- Hard gate: always-on context propagation must stay in the noise. --
  if (overhead_pct > 3.0) {
    std::printf("FAIL: trace-context propagation costs %.2f%% of route "
                "latency (%.1f ns vs %.1f us mean); limit is 3%%\n",
                overhead_pct, propagation_ns, route_mean_us);
    return 1;
  }

  // --- Strict targets (opt-in; meaningful on a dedicated multi-core box).
  if (strict) {
    bool ok = true;
    if (peak_qps < 50000.0) {
      std::printf("STRICT FAIL: peak closed-loop qps %.0f < 50000\n",
                  peak_qps);
      ok = false;
    }
    if (below_saturation_p99_us >= 5000.0) {
      std::printf("STRICT FAIL: below-saturation p99 %.1f us >= 5 ms\n",
                  below_saturation_p99_us);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("strict targets met: peak %.0f qps, p99 %.1f us\n", peak_qps,
                below_saturation_p99_us);
  }
  return 0;
}
