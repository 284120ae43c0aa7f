// Tree scoring: S(q,T) = max_{C in T} S(q,C) and
// S(Q,W,T) = sum_q W(q) * S(q,T)  (Section 2.1, "Objective").
//
// Scoring reads the tree's TreeIndex (core/tree_index.h), so each input set
// costs O(|q| * depth) rather than O(|q| * #categories) and counts an item
// on two branches once; sets are scored in parallel (Section 5.3).

#ifndef OCT_CORE_SCORING_H_
#define OCT_CORE_SCORING_H_

#include <vector>

#include "core/category_tree.h"
#include "core/input.h"
#include "core/similarity.h"
#include "util/thread_pool.h"

namespace oct {

/// How one input set is matched by the tree.
struct SetCover {
  /// S(q, T) under the variant (0 when uncovered).
  double score = 0.0;
  /// Raw (un-thresholded) similarity of the best category.
  double raw = 0.0;
  /// Best-matching category, kInvalidNode when the set has zero overlap
  /// with every category.
  NodeId best_node = kInvalidNode;
  bool covered = false;
};

/// Aggregate score of a tree over an input.
struct TreeScore {
  /// sum_q W(q) * S(q, T).
  double total = 0.0;
  /// total / sum_q W(q)  — the normalization used throughout Section 5.
  double normalized = 0.0;
  size_t num_covered = 0;
  std::vector<SetCover> per_set;
};

/// Scores `tree` over every set of `input` under `sim`. Per-set threshold
/// overrides are honored. When `pool` is null, DefaultThreadPool() is used
/// for inputs large enough to benefit. When `exclude_cover` names a node,
/// that node is not eligible as any set's best cover — per-component
/// builders (oct::delta) exclude the component-local root, whose item set
/// is the undiluted component union and would otherwise steal best-cover
/// designations the diluted global root never wins.
TreeScore ScoreTree(const OctInput& input, const CategoryTree& tree,
                    const Similarity& sim, ThreadPool* pool = nullptr,
                    NodeId exclude_cover = kInvalidNode);

/// Fills each category's `covered_sets` (clearing stale values) with the
/// sets for which it is the best cover. Ties on score are broken toward
/// higher precision, as in the paper's condensing step. `exclude_cover`
/// is forwarded to ScoreTree.
void AnnotateCoveredSets(const OctInput& input, const Similarity& sim,
                         CategoryTree* tree,
                         NodeId exclude_cover = kInvalidNode);

}  // namespace oct

#endif  // OCT_CORE_SCORING_H_
