#include "core/scoring.h"

#include <algorithm>

#include "core/tree_index.h"
#include "kernel/scratch.h"
#include "util/logging.h"

namespace oct {

namespace {

SetCover ScoreOneSet(const OctInput& input, const Similarity& sim,
                     const TreeIndex& index, kernel::SubtreeCounter* inter,
                     SetId q, NodeId exclude_cover) {
  const CandidateSet& cs = input.set(q);
  // Intersection size of q with every category that shares an item with it:
  // walk from each shared item's direct nodes to the root, counting the item
  // once per node even when it sits on two branches. The counter resets in
  // O(categories touched), so one per worker amortizes across the chunk
  // (the tie-break chain below is a total order, so iteration order does
  // not affect the winner).
  for (ItemId item : cs.items) inter->AddItem(index.PlacementsOf(item));
  SetCover cover;
  double best_precision = -1.0;
  size_t best_depth = 0;
  for (const NodeId node : inter->touched()) {
    if (node == exclude_cover) continue;
    const size_t count = inter->count(node);
    const size_t size = index.size(node);
    const double raw = sim.RawFromSizes(cs.items.size(), size, count);
    const double score =
        sim.ScoreFromSizes(cs.items.size(), size, count, cs.delta_override);
    const double precision = PrecisionFromSizes(size, count);
    const size_t depth = index.depth(node);
    // Prefer higher score; break ties toward higher precision (paper: "we
    // retain the one with the highest precision"), then toward the deeper
    // (more specific) category, so dedicated categories beat ancestors that
    // merely contain them.
    bool better = cover.best_node == kInvalidNode || score > cover.score;
    if (!better && score == cover.score) {
      better =
          precision > best_precision ||
          (precision == best_precision &&
           (raw > cover.raw ||
            (raw == cover.raw &&
             (depth > best_depth ||
              (depth == best_depth && node < cover.best_node)))));
    }
    if (better) {
      cover.score = score;
      cover.raw = raw;
      cover.best_node = node;
      best_precision = precision;
      best_depth = depth;
    }
  }
  cover.covered = cover.score > 0.0;
  inter->Reset();
  return cover;
}

}  // namespace

TreeScore ScoreTree(const OctInput& input, const CategoryTree& tree,
                    const Similarity& sim, ThreadPool* pool,
                    NodeId exclude_cover) {
  TreeScore result;
  result.per_set.resize(input.num_sets());
  // Items the tree places beyond the input's universe (a tree scored under
  // another input: the serving drift check, the train/test experiment)
  // count toward sizes, and so toward precision, but no set looks them up.
  const TreeIndex index = TreeIndex::Build(tree);

  auto worker = [&](size_t begin, size_t end) {
    kernel::SubtreeCounter inter(index.parents());
    for (size_t q = begin; q < end; ++q) {
      result.per_set[q] = ScoreOneSet(input, sim, index, &inter,
                                      static_cast<SetId>(q), exclude_cover);
    }
  };
  if (pool == nullptr && input.num_sets() >= 256) {
    pool = DefaultThreadPool();
  }
  if (pool != nullptr) {
    pool->ParallelFor(input.num_sets(), worker);
  } else {
    worker(0, input.num_sets());
  }

  double total = 0.0;
  size_t covered = 0;
  for (SetId q = 0; q < input.num_sets(); ++q) {
    total += input.set(q).weight * result.per_set[q].score;
    if (result.per_set[q].covered) ++covered;
  }
  result.total = total;
  result.num_covered = covered;
  const double denom = input.TotalWeight();
  result.normalized = denom > 0.0 ? total / denom : 0.0;
  return result;
}

void AnnotateCoveredSets(const OctInput& input, const Similarity& sim,
                         CategoryTree* tree, NodeId exclude_cover) {
  for (NodeId id = 0; id < tree->num_nodes(); ++id) {
    tree->mutable_node(id).covered_sets.clear();
  }
  const TreeScore score =
      ScoreTree(input, *tree, sim, nullptr, exclude_cover);
  for (SetId q = 0; q < input.num_sets(); ++q) {
    const SetCover& c = score.per_set[q];
    if (c.covered && c.best_node != kInvalidNode) {
      tree->mutable_node(c.best_node).covered_sets.push_back(q);
    }
  }
}

}  // namespace oct
