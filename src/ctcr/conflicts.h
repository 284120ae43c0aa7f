// Conflict enumeration (Sections 3.1-3.3): ranking of the input sets,
// parallel 2-conflict detection over intersecting pairs (driven by the
// kernel::ItemSetIndex candidate-pruning scan — disjoint pairs can always
// be covered separately and never conflict), must-cover-together pair
// extraction, and 3-conflict detection for thresholds < 1.

#ifndef OCT_CTCR_CONFLICTS_H_
#define OCT_CTCR_CONFLICTS_H_

#include <array>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/input.h"
#include "core/similarity.h"
#include "ctcr/conflict_policy.h"
#include "util/thread_pool.h"

namespace oct {
namespace kernel {
class ItemSetIndex;
}  // namespace kernel

namespace ctcr {

/// The complete conflict structure of an OCT instance.
struct ConflictAnalysis {
  /// SetId -> rank: 0 is the largest set; ties broken by ascending weight
  /// ("largest to smallest, and as a secondary criterion ... lightest to
  /// heaviest"), then by id.
  std::vector<uint32_t> rank;
  /// rank -> SetId.
  std::vector<SetId> by_rank;

  /// 2-conflicts (unordered pairs, first < second).
  std::vector<std::pair<SetId, SetId>> conflicts2;
  /// 3-conflicts (sorted triples).
  std::vector<std::array<SetId, 3>> conflicts3;

  /// Adjacency lists of the must-cover-together relation.
  std::vector<std::vector<SetId>> must_together;

  bool IsConflict2(SetId a, SetId b) const {
    return conflict2_keys.count(PairKey(a, b)) > 0;
  }
  bool IsMustTogether(SetId a, SetId b) const {
    return must_keys.count(PairKey(a, b)) > 0;
  }

  static uint64_t PairKey(SetId a, SetId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  std::unordered_set<uint64_t> conflict2_keys;
  std::unordered_set<uint64_t> must_keys;

  /// Number of intersecting pairs examined (diagnostics / benchmarks).
  size_t pairs_examined = 0;
};

/// Runs the conflict analysis of the input `index` was built over.
/// 3-conflicts are computed only when `find_3conflicts` (CTCR enables it
/// for thresholds < 1). `pool` defaults to the process-wide pool; pass a
/// 1-thread pool for serial execution. Results are identical either way.
ConflictAnalysis AnalyzeConflicts(const kernel::ItemSetIndex& index,
                                  const Similarity& sim,
                                  bool find_3conflicts = true,
                                  ThreadPool* pool = nullptr);

/// Weighted average number of 2-conflicts per input set — the C2(Q,W)
/// quantity of Theorem 3.1 (the Exact-variant approximation guarantee).
double WeightedAverageConflicts(const OctInput& input,
                                const ConflictAnalysis& analysis);

}  // namespace ctcr
}  // namespace oct

#endif  // OCT_CTCR_CONFLICTS_H_
