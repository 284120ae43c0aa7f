// Micro-benchmarks (google-benchmark) for the hot paths: ItemSet
// intersection counting, conflict enumeration, the MIS solver stack, tree
// scoring, and agglomerative clustering.
//
// Structured output:
//   OCT_BENCH_JSON=<path>  dump the default metrics registry (pipeline
//                          counters + latency histograms populated by the
//                          instrumented code under benchmark) as JSON
//   OCT_TRACE=<path>       record trace spans and write a Chrome-trace file

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "cct/agglomerative.h"
#include "cct/embedding.h"
#include "core/scoring.h"
#include "ctcr/conflicts.h"
#include "ctcr/ctcr.h"
#include "kernel/item_set_index.h"
#include "kernel/pairwise.h"
#include "mis/greedy.h"
#include "mis/local_search.h"
#include "mis/solver.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {

using namespace oct;

ItemSet RandomSet(Rng* rng, size_t universe, size_t size) {
  std::vector<ItemId> items;
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<ItemId>(rng->NextBelow(universe)));
  }
  return ItemSet(std::move(items));
}

OctInput RandomInput(size_t universe, size_t sets, size_t avg_size,
                     uint64_t seed) {
  Rng rng(seed);
  OctInput input(universe);
  for (size_t s = 0; s < sets; ++s) {
    ItemSet set = RandomSet(&rng, universe, avg_size / 2 +
                                                rng.NextBelow(avg_size));
    if (set.empty()) set = ItemSet({static_cast<ItemId>(s % universe)});
    input.Add(std::move(set), 0.5 + rng.NextDouble() * 4.0);
  }
  return input;
}

void BM_ItemSetIntersectionSize(benchmark::State& state) {
  Rng rng(1);
  const ItemSet a = RandomSet(&rng, 100000, state.range(0));
  const ItemSet b = RandomSet(&rng, 100000, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectionSize(b));
  }
}
BENCHMARK(BM_ItemSetIntersectionSize)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ItemSetGallopingIntersection(benchmark::State& state) {
  Rng rng(2);
  const ItemSet small = RandomSet(&rng, 1000000, 50);
  const ItemSet big = RandomSet(&rng, 1000000, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(small.IntersectionSize(big));
  }
}
BENCHMARK(BM_ItemSetGallopingIntersection)->Arg(10000)->Arg(100000);

// --- kernel section ---------------------------------------------------
// The inverted-index build and the two pairwise drivers (DESIGN.md §8).

void BM_ItemSetIndexBuild(benchmark::State& state) {
  const OctInput input =
      RandomInput(20000, static_cast<size_t>(state.range(0)), 60, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel::ItemSetIndex::Build(input));
  }
}
BENCHMARK(BM_ItemSetIndexBuild)
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMicrosecond);

void BM_OverlapScan(benchmark::State& state) {
  // The candidate-pruned pairwise driver behind conflict enumeration.
  const OctInput input =
      RandomInput(20000, static_cast<size_t>(state.range(0)), 60, 25);
  const kernel::ItemSetIndex index = kernel::ItemSetIndex::Build(input);
  for (auto _ : state) {
    const kernel::OverlapScanStats stats = kernel::ScanOverlapChunks(
        index, nullptr,
        [](size_t begin, size_t end, kernel::OverlapScratch& scratch) {
          for (size_t q = begin; q < end; ++q) {
            scratch.Partners(static_cast<SetId>(q), /*later_only=*/true);
          }
        });
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_OverlapScan)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_CondensedDistances(benchmark::State& state) {
  const OctInput input =
      RandomInput(10000, static_cast<size_t>(state.range(0)), 50, 26);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const cct::Embeddings emb =
      cct::EmbedInputSets(kernel::ItemSetIndex::Build(input), sim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel::CondensedEuclideanDistances(
        emb.rows(), emb.squared_norms(), DefaultThreadPool()));
  }
}
BENCHMARK(BM_CondensedDistances)
    ->Arg(400)
    ->Arg(1200)
    ->Unit(benchmark::kMicrosecond);

// --- end kernel section -----------------------------------------------

void BM_ConflictAnalysis(benchmark::State& state) {
  const OctInput input =
      RandomInput(20000, static_cast<size_t>(state.range(0)), 60, 3);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctcr::AnalyzeConflicts(
        kernel::ItemSetIndex::Build(input), sim, true));
  }
}
BENCHMARK(BM_ConflictAnalysis)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_MisGreedy(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  mis::Graph g(n);
  for (size_t e = 0; e < n * 3; ++e) {
    const auto u = static_cast<mis::VertexId>(rng.NextBelow(n));
    const auto v = static_cast<mis::VertexId>(rng.NextBelow(n));
    if (u != v) g.AddEdge(u, v);
  }
  g.Finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mis::SolveGreedy(g));
  }
}
BENCHMARK(BM_MisGreedy)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_MisSolverSparse(benchmark::State& state) {
  Rng rng(5);
  const size_t n = static_cast<size_t>(state.range(0));
  mis::Graph g(n);
  for (size_t e = 0; e < n / 2; ++e) {
    const auto u = static_cast<mis::VertexId>(rng.NextBelow(n));
    const auto v = static_cast<mis::VertexId>(rng.NextBelow(n));
    if (u != v) g.AddEdge(u, v);
  }
  g.Finalize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mis::SolveMis(g));
  }
}
BENCHMARK(BM_MisSolverSparse)->Arg(1000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_CtcrEndToEnd(benchmark::State& state) {
  const OctInput input =
      RandomInput(5000, static_cast<size_t>(state.range(0)), 40, 6);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctcr::BuildCategoryTree(input, sim));
  }
}
BENCHMARK(BM_CtcrEndToEnd)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_ScoreTree(benchmark::State& state) {
  const OctInput input =
      RandomInput(10000, static_cast<size_t>(state.range(0)), 50, 7);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const ctcr::CtcrResult result = ctcr::BuildCategoryTree(input, sim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScoreTree(input, result.tree, sim));
  }
}
BENCHMARK(BM_ScoreTree)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_Embeddings(benchmark::State& state) {
  const OctInput input =
      RandomInput(10000, static_cast<size_t>(state.range(0)), 50, 8);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cct::EmbedInputSets(kernel::ItemSetIndex::Build(input), sim));
  }
}
BENCHMARK(BM_Embeddings)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_AgglomerativeClustering(benchmark::State& state) {
  Rng rng(9);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> pts(n);
  for (auto& p : pts) p = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cct::AgglomerativeCluster(
        n, [&](size_t a, size_t b) { return std::abs(pts[a] - pts[b]); }));
  }
}
BENCHMARK(BM_AgglomerativeClustering)
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

void WriteStructuredReports() {
  const char* trace_path = std::getenv("OCT_TRACE");
  if (trace_path != nullptr) {
    const Status st = obs::WriteStringToFile(
        trace_path, obs::SpansToChromeTrace(obs::CollectSpans()));
    if (!st.ok()) {
      std::fprintf(stderr, "OCT_TRACE: %s\n", st.ToString().c_str());
    }
  }
  const char* json_path = std::getenv("OCT_BENCH_JSON");
  if (json_path == nullptr) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("micro_benchmarks");
  w.Key("metrics").Raw(obs::MetricsToJson(*obs::MetricsRegistry::Default()));
  w.EndObject();
  const Status st = obs::WriteStringToFile(json_path, w.str());
  if (!st.ok()) {
    std::fprintf(stderr, "OCT_BENCH_JSON: %s\n", st.ToString().c_str());
  }
}

}  // namespace

// Custom main (instead of benchmark_main) so the instrumented library's
// metrics and spans can be exported after the benchmark run.
int main(int argc, char** argv) {
  if (std::getenv("OCT_TRACE") != nullptr) {
    oct::obs::SetTracingEnabled(true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteStructuredReports();
  return 0;
}
