// kernel_speedup: measures what the oct::kernel layer buys on the two hot
// paths it accelerates, and verifies the acceleration is exact.
//
//   1. Conflict enumeration (dataset C, default bench scale): a serial
//      all-pairs merge-based baseline — the loop the paper implies and the
//      code shipped before the kernel layer — against AnalyzeConflicts,
//      which counts overlaps through the ItemSetIndex item -> sets lists
//      (disjoint pairs are never touched) on the ThreadPool. The bench
//      FAILS (exit 1) unless the kernel path is at least 3x faster AND
//      produces the identical conflict structure.
//   2. The CCT condensed distance matrix: serial Embeddings::Distance
//      oracle loop vs kernel::CondensedEuclideanDistances, verified
//      bit-identical, plus an end-to-end CCT tree-identity check with a
//      prebuilt index vs the one CCT builds itself.
//
// Each timed phase is wrapped in a PerfPhase, so OCT_BENCH_JSON snapshots
// carry per-phase hardware counters (IPC, LLC miss rate) when
// perf_event_open is available — and the explicit "perf_unavailable"
// marker when it is not; the header line says which.
//
// Structured output: OCT_BENCH_JSON / OCT_TRACE as in every other bench.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "cct/cct.h"
#include "cct/embedding.h"
#include "core/serialization.h"
#include "ctcr/conflict_policy.h"
#include "ctcr/conflicts.h"
#include "data/datasets.h"
#include "kernel/item_set_index.h"
#include "kernel/pairwise.h"
#include "util/perf_counters.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace oct {
namespace {

/// Times `fn` by taking the fastest of a few repetitions (min, not mean:
/// the minimum is the least noisy estimator of the true cost). Repeats
/// until ~0.3s of total work or 10 reps, whichever comes first.
template <typename Fn>
double TimeMin(Fn&& fn) {
  double best = 1e300;
  double total = 0.0;
  for (int rep = 0; rep < 10 && (rep == 0 || total < 0.3); ++rep) {
    Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    best = std::min(best, s);
    total += s;
  }
  return best;
}

/// The pre-kernel reference: serial, all O(n^2) pairs, merge-based
/// intersection counting, identical ranking and policy decisions.
ctcr::ConflictAnalysis BaselineAnalyzeConflicts(const OctInput& input,
                                                const Similarity& sim) {
  const size_t n = input.num_sets();
  ctcr::ConflictAnalysis analysis;
  analysis.by_rank.resize(n);
  std::iota(analysis.by_rank.begin(), analysis.by_rank.end(), 0);
  std::sort(analysis.by_rank.begin(), analysis.by_rank.end(),
            [&](SetId a, SetId b) {
              const size_t sa = input.set(a).items.size();
              const size_t sb = input.set(b).items.size();
              if (sa != sb) return sa > sb;
              if (input.set(a).weight != input.set(b).weight) {
                return input.set(a).weight < input.set(b).weight;
              }
              return a < b;
            });
  analysis.rank.resize(n);
  for (uint32_t r = 0; r < n; ++r) analysis.rank[analysis.by_rank[r]] = r;

  const ctcr::ConflictPolicy policy(sim);
  const bool relaxed = input.HasRelaxedBounds();
  std::vector<std::pair<SetId, SetId>> must_pairs;
  for (SetId a = 0; a < n; ++a) {
    for (SetId b = a + 1; b < n; ++b) {
      const ItemSet& sa = input.set(a).items;
      const ItemSet& sb = input.set(b).items;
      const size_t inter = sa.IntersectionSize(sb);
      if (inter == 0) continue;
      size_t inter_strict = inter;
      if (relaxed) {
        inter_strict = 0;
        for (ItemId item : sa.Intersect(sb)) {
          if (input.ItemBound(item) == 1) ++inter_strict;
        }
      }
      ++analysis.pairs_examined;
      const SetId hi = analysis.rank[a] < analysis.rank[b] ? a : b;
      const SetId lo = hi == a ? b : a;
      ctcr::PairStats p;
      p.hi_size = input.set(hi).items.size();
      p.lo_size = input.set(lo).items.size();
      p.inter = inter;
      p.inter_strict = inter_strict;
      p.hi_delta = input.set(hi).delta_override;
      p.lo_delta = input.set(lo).delta_override;
      const bool together = policy.CanCoverTogether(p);
      const bool separately = policy.CanCoverSeparately(p);
      if (!together && !separately) {
        analysis.conflicts2.push_back({a, b});
      } else if (together && !separately) {
        must_pairs.push_back({a, b});
      }
    }
  }
  std::sort(analysis.conflicts2.begin(), analysis.conflicts2.end());
  for (const auto& [a, b] : analysis.conflicts2) {
    analysis.conflict2_keys.insert(ctcr::ConflictAnalysis::PairKey(a, b));
  }
  analysis.must_together.assign(n, {});
  std::sort(must_pairs.begin(), must_pairs.end());
  for (const auto& [a, b] : must_pairs) {
    analysis.must_together[a].push_back(b);
    analysis.must_together[b].push_back(a);
    analysis.must_keys.insert(ctcr::ConflictAnalysis::PairKey(a, b));
  }
  return analysis;
}

bool SameConflictStructure(const ctcr::ConflictAnalysis& x,
                           const ctcr::ConflictAnalysis& y) {
  return x.rank == y.rank && x.by_rank == y.by_rank &&
         x.conflicts2 == y.conflicts2 && x.conflicts3 == y.conflicts3 &&
         x.must_together == y.must_together;
}

int Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return 1;
}

}  // namespace
}  // namespace oct

int main() {
  using namespace oct;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const data::Dataset ds = data::MakeDataset('C', sim);
  bench::PrintHeader("kernel_speedup", ds);
  std::printf("perf counters: %s\n\n",
              util::PerfCounters::Supported() ? "available"
                                              : "perf_unavailable");
  const size_t n = ds.input.num_sets();
  const size_t all_pairs = n * (n - 1) / 2;

  // --- Conflict enumeration: baseline vs kernel ------------------------
  ctcr::ConflictAnalysis baseline;
  double baseline_s = 0;
  {
    bench::PerfPhase perf("conflict_enum_baseline");
    baseline_s = TimeMin(
        [&] { baseline = BaselineAnalyzeConflicts(ds.input, sim); });
  }

  // The kernel time covers everything the accelerated path needs,
  // including building the ItemSetIndex it runs on.
  ctcr::ConflictAnalysis accelerated;
  kernel::ItemSetIndex index;
  double kernel_s = 0;
  {
    bench::PerfPhase perf("conflict_enum_kernel");
    kernel_s = TimeMin([&] {
      index = kernel::ItemSetIndex::Build(ds.input);
      accelerated = ctcr::AnalyzeConflicts(index, sim,
                                           /*find_3conflicts=*/false);
    });
  }
  if (!SameConflictStructure(baseline, accelerated)) {
    return Fail("kernel conflict structure differs from the baseline");
  }
  const double speedup = baseline_s / kernel_s;
  const double pruned_pct =
      all_pairs == 0
          ? 0.0
          : 100.0 * (all_pairs - accelerated.pairs_examined) / all_pairs;

  TableWriter conflicts({"phase", "baseline_s", "kernel_s", "speedup",
                         "pairs_visited", "pairs_total", "pruned_%"});
  conflicts.AddRow({"conflict_enum", TableWriter::Num(baseline_s, 4),
                    TableWriter::Num(kernel_s, 4),
                    TableWriter::Num(speedup, 2),
                    std::to_string(accelerated.pairs_examined),
                    std::to_string(all_pairs),
                    TableWriter::Num(pruned_pct, 1)});
  bench::BenchReport::Get().AddTable("conflict_speedup", conflicts);
  std::printf("%s\n", conflicts.ToAligned().c_str());

  // Equivalence of the full analysis (3-conflicts on) over the prebuilt
  // index vs a freshly built one.
  const auto full_fresh = ctcr::AnalyzeConflicts(
      kernel::ItemSetIndex::Build(ds.input), sim, true);
  const auto full_prebuilt = ctcr::AnalyzeConflicts(index, sim, true);
  if (!SameConflictStructure(full_fresh, full_prebuilt)) {
    return Fail("prebuilt/fresh index conflict analyses differ");
  }

  // --- CCT distance matrix: serial oracle vs kernel --------------------
  const cct::Embeddings emb = cct::EmbedInputSets(index, sim);
  const size_t m = emb.num_rows();
  std::vector<float> oracle(m * (m - 1) / 2);
  double oracle_s = 0;
  {
    bench::PerfPhase perf("distance_matrix_baseline");
    oracle_s = TimeMin([&] {
      size_t k = 0;
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = i + 1; j < m; ++j, ++k) {
          oracle[k] = static_cast<float>(emb.Distance(i, j));
        }
      }
    });
  }
  std::vector<float> fast;
  double fast_s = 0;
  {
    bench::PerfPhase perf("distance_matrix_kernel");
    fast_s = TimeMin([&] {
      fast = kernel::CondensedEuclideanDistances(emb.rows(),
                                                 emb.squared_norms(),
                                                 DefaultThreadPool());
    });
  }
  if (fast != oracle) {
    return Fail("distance matrix is not bit-identical to the oracle");
  }
  TableWriter dist({"phase", "baseline_s", "kernel_s", "speedup", "pairs"});
  dist.AddRow({"cct_distance_matrix", TableWriter::Num(oracle_s, 4),
               TableWriter::Num(fast_s, 4),
               TableWriter::Num(oracle_s / fast_s, 2),
               std::to_string(oracle.size())});
  bench::BenchReport::Get().AddTable("distance_speedup", dist);
  std::printf("%s\n", dist.ToAligned().c_str());

  // End-to-end CCT tree identity, prebuilt index + pool vs all defaults
  // (CCT builds its own index).
  cct::CctOptions tuned;
  tuned.index = &index;
  tuned.pool = DefaultThreadPool();
  const cct::CctResult plain = cct::BuildCategoryTree(ds.input, sim);
  const cct::CctResult fast_tree = cct::BuildCategoryTree(ds.input, sim, tuned);
  if (SerializeTree(plain.tree) != SerializeTree(fast_tree.tree)) {
    return Fail("CCT trees differ with a prebuilt index vs CCT's own");
  }
  std::printf("verified: conflict sets identical, distance matrix "
              "bit-identical, CCT trees identical (prebuilt/own index)\n");

  if (speedup < 3.0) {
    return Fail("conflict enumeration speedup below the 3x floor");
  }
  std::printf("conflict enumeration speedup: %.2fx (>= 3x floor)\n", speedup);
  return 0;
}
