#include "ctcr/conflicts.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "kernel/item_set_index.h"
#include "kernel/pairwise.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace oct {
namespace ctcr {

namespace {

PairStats MakeStats(const OctInput& input, const ConflictAnalysis& analysis,
                    SetId a, SetId b, uint32_t inter, uint32_t inter_strict) {
  // `hi` is the lower rank number (placed higher).
  const SetId hi = analysis.rank[a] < analysis.rank[b] ? a : b;
  const SetId lo = hi == a ? b : a;
  PairStats p;
  p.hi_size = input.set(hi).items.size();
  p.lo_size = input.set(lo).items.size();
  p.inter = inter;
  p.inter_strict = inter_strict;
  p.hi_delta = input.set(hi).delta_override;
  p.lo_delta = input.set(lo).delta_override;
  return p;
}

}  // namespace

ConflictAnalysis AnalyzeConflicts(const kernel::ItemSetIndex& index,
                                  const Similarity& sim, bool find_3conflicts,
                                  ThreadPool* pool) {
  OCT_SPAN("ctcr/analyze_conflicts");
  const OctInput& input = index.input();
  const size_t n = input.num_sets();
  ConflictAnalysis analysis;

  // Ranking: size desc, weight asc, id asc (Section 3.2).
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

  const ConflictPolicy policy(sim);

  // Parallel 2-conflict scan over intersecting pairs (disjoint pairs are
  // pruned by the kernel driver and never examined).
  std::mutex merge_mu;
  std::vector<std::pair<SetId, SetId>> conflicts2;
  std::vector<std::pair<SetId, SetId>> must_pairs;
  size_t pairs_examined = 0;
  {
  OCT_SPAN("ctcr/scan_pairs");
  kernel::ScanOverlapChunks(
      index, pool,
      [&](size_t begin, size_t end, kernel::OverlapScratch& scratch) {
        std::vector<std::pair<SetId, SetId>> local_conflicts;
        std::vector<std::pair<SetId, SetId>> local_must;
        size_t local_pairs = 0;
        for (size_t q = begin; q < end; ++q) {
          const std::vector<kernel::PairCount>& partners =
              scratch.Partners(static_cast<SetId>(q), /*later_only=*/true);
          local_pairs += partners.size();
          for (const kernel::PairCount& pi : partners) {
            const PairStats stats =
                MakeStats(input, analysis, static_cast<SetId>(q), pi.other,
                          pi.inter, pi.inter_strict);
            const bool together = policy.CanCoverTogether(stats);
            const bool separately = policy.CanCoverSeparately(stats);
            if (!together && !separately) {
              local_conflicts.push_back({static_cast<SetId>(q), pi.other});
            } else if (together && !separately) {
              local_must.push_back({static_cast<SetId>(q), pi.other});
            }
          }
        }
        std::unique_lock<std::mutex> lock(merge_mu);
        conflicts2.insert(conflicts2.end(), local_conflicts.begin(),
                          local_conflicts.end());
        must_pairs.insert(must_pairs.end(), local_must.begin(),
                          local_must.end());
        pairs_examined += local_pairs;
      });
  }
  analysis.pairs_examined = pairs_examined;
  static obs::Counter* pairs_counter =
      obs::MetricsRegistry::Default()->GetCounter("ctcr.pairs_examined");
  pairs_counter->Increment(pairs_examined);
  std::sort(conflicts2.begin(), conflicts2.end());
  analysis.conflicts2 = std::move(conflicts2);
  for (const auto& [a, b] : analysis.conflicts2) {
    analysis.conflict2_keys.insert(ConflictAnalysis::PairKey(a, b));
  }
  analysis.must_together.assign(n, {});
  std::sort(must_pairs.begin(), must_pairs.end());
  for (const auto& [a, b] : must_pairs) {
    analysis.must_together[a].push_back(b);
    analysis.must_together[b].push_back(a);
    analysis.must_keys.insert(ConflictAnalysis::PairKey(a, b));
  }

  if (!find_3conflicts) return analysis;

  OCT_SPAN("ctcr/conflicts3");
  // 3-conflicts (Section 3.2): for every middle set q2 with must-together
  // partners q1, q3 where q2 is not the lowest-ranking of the three, the
  // triple conflicts unless {q1, q3} must also be covered together (or is
  // already a 2-conflict).
  for (SetId q2 = 0; q2 < n; ++q2) {
    const auto& partners = analysis.must_together[q2];
    for (size_t i = 0; i < partners.size(); ++i) {
      for (size_t j = i + 1; j < partners.size(); ++j) {
        const SetId q1 = partners[i];
        const SetId q3 = partners[j];
        // Skip when q2 is the lowest-ranking (would be the common ancestor).
        if (analysis.rank[q2] < analysis.rank[q1] &&
            analysis.rank[q2] < analysis.rank[q3]) {
          continue;
        }
        if (analysis.IsMustTogether(q1, q3)) continue;
        if (analysis.IsConflict2(q1, q3)) continue;
        std::array<SetId, 3> t = {q1, q2, q3};
        std::sort(t.begin(), t.end());
        analysis.conflicts3.push_back(t);
      }
    }
  }
  std::sort(analysis.conflicts3.begin(), analysis.conflicts3.end());
  analysis.conflicts3.erase(
      std::unique(analysis.conflicts3.begin(), analysis.conflicts3.end()),
      analysis.conflicts3.end());
  return analysis;
}

double WeightedAverageConflicts(const OctInput& input,
                                const ConflictAnalysis& analysis) {
  std::vector<size_t> conflict_count(input.num_sets(), 0);
  for (const auto& [a, b] : analysis.conflicts2) {
    ++conflict_count[a];
    ++conflict_count[b];
  }
  double weighted = 0.0;
  for (SetId q = 0; q < input.num_sets(); ++q) {
    weighted += input.set(q).weight * static_cast<double>(conflict_count[q]);
  }
  const double total = input.TotalWeight();
  return total > 0.0 ? weighted / total : 0.0;
}

}  // namespace ctcr
}  // namespace oct
