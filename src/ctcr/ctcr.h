// CTCR — the Category Tree Conflict Resolver (Algorithm 1, Section 3).
//
// Pipeline: rank the input sets; enumerate 2-conflicts (and, for thresholds
// below 1, 3-conflicts); solve Maximum Independent Set on the conflict
// (hyper)graph; build a tree with one category per surviving set (parent =
// closest must-cover-together predecessor); assign items (Algorithm 2 for
// the Jaccard / F1 variants); add intermediate categories; condense; collect
// unassigned items into a misc category.

#ifndef OCT_CTCR_CTCR_H_
#define OCT_CTCR_CTCR_H_

#include <vector>

#include "core/category_tree.h"
#include "core/input.h"
#include "core/item_assignment.h"
#include "core/similarity.h"
#include "ctcr/conflicts.h"
#include "fault/cancel.h"
#include "mis/hypergraph_solver.h"
#include "mis/solver.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace oct {
namespace ctcr {

struct CtcrOptions {
  mis::MisOptions mis;
  mis::HypergraphSolverOptions hypergraph;
  /// Thread pool for the parallel phases (null: process default).
  ThreadPool* pool = nullptr;
  /// Prebuilt kernel::ItemSetIndex over the input (not owned; may be null,
  /// in which case CTCR builds one for the run), read by every phase.
  /// Callers that run several pipelines on one dataset build it once.
  const kernel::ItemSetIndex* index = nullptr;
  /// Disable to skip lines 21-23 (intermediate categories) — ablation knob.
  bool add_intermediate_categories = true;
  /// Disable to skip lines 24-25 (condensing) — ablation knob.
  bool condense = true;
  /// Disable to bar the root from best-cover candidacy during condensing
  /// and coverage annotation. Per-component builders (oct::delta) disable
  /// it: the component-local root's item set is the undiluted component
  /// union, so it would steal best-cover designations that the diluted
  /// global root never wins, condensing away real top-level categories.
  bool root_cover_candidate = true;
  /// Disable to skip line 26 (the misc category). The misc category is
  /// universe-wide — it collects every item assigned nowhere — so callers
  /// that build per-component subtrees (oct::delta) must add it exactly
  /// once on the spliced tree, not once per component. ValidateModel only
  /// bounds placements from above, so the tree stays model-valid without it.
  bool add_misc_category = true;
  /// Deadline/cancellation (not owned; may be null). CTCR degrades as an
  /// anytime algorithm: conflict analysis always completes (the tree is
  /// invalid without it), the MIS stage keeps its best valid IS so far, and
  /// the optional refinement passes (intermediate categories, condensing)
  /// are skipped. The result is always a valid, model-checked tree;
  /// `CtcrResult::status` reports kDeadlineExceeded when degraded.
  const fault::CancelToken* cancel = nullptr;
};

/// Everything CTCR produces besides the tree (diagnostics for benchmarks,
/// experiments, and the user-facing workflow).
struct CtcrResult {
  CategoryTree tree;
  /// The conflict-free subset S the tree was built to cover.
  std::vector<SetId> independent_set;
  /// Weight of S — an upper bound on the achievable covered weight for
  /// binary variants (tight for Exact).
  double independent_set_weight = 0.0;
  /// Whether the MIS stage solved its instance optimally.
  bool mis_optimal = false;
  ConflictAnalysis analysis;
  AssignItemsStats assignment;
  size_t intermediates_added = 0;
  double seconds_conflicts = 0.0;
  double seconds_mis = 0.0;
  double seconds_build = 0.0;
  /// OK, or kDeadlineExceeded when the build deadline expired and the tree
  /// is a (still valid) best-so-far result.
  Status status = Status::OK();
};

/// Runs CTCR for any of the six variants. The input must be valid
/// (input.Validate().ok()).
CtcrResult BuildCategoryTree(const OctInput& input, const Similarity& sim,
                             const CtcrOptions& options = {});

}  // namespace ctcr
}  // namespace oct

#endif  // OCT_CTCR_CTCR_H_
