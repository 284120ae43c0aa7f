// Pairwise drivers: blocked, ThreadPool-parallel scans over all pairs of
// input sets that share at least one item, plus the dense distance-matrix
// kernel behind CCT and the prefix-filter bounds behind query merging.
//
// The scans are driven by the ItemSetIndex item -> sets lists, so disjoint
// pairs are never touched ("candidate pruning"); the `kernel.pairs_pruned`
// counter records how many of the O(n^2) pairs were skipped that way, and
// `kernel.pairs_visited` how many were actually counted. Each worker chunk
// owns an OverlapScratch (dense counters with O(touched) reset), so the
// parallel drivers allocate per chunk, not per pair.
//
// Equivalence contract: every driver here reproduces the corresponding
// naive loop *exactly* — same counts, and for the floating-point distance
// matrix the same summation order, so downstream trees are bit-identical
// with the kernels on or off (tested in tests/test_kernel.cc).

#ifndef OCT_KERNEL_PAIRWISE_H_
#define OCT_KERNEL_PAIRWISE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "kernel/item_set_index.h"
#include "util/thread_pool.h"

namespace oct {
namespace kernel {

/// One intersecting partner of a probed set: the exact intersection size
/// and the intersection restricted to strict (bound == 1) items. With no
/// relaxed bounds, inter_strict == inter.
struct PairCount {
  SetId other;
  uint32_t inter;
  uint32_t inter_strict;
};

/// Reusable per-thread scratch for overlap counting. Partners() walks the
/// item -> sets lists of one set's items and emits every intersecting
/// partner with its exact count — in first-touch order, which is
/// deterministic (items ascending, each list ascending).
class OverlapScratch {
 public:
  explicit OverlapScratch(const ItemSetIndex& index);

  /// Intersection counts of set q against every set sharing an item with
  /// it. `later_only` restricts to partners with id > q (each unordered
  /// pair visited once — the conflict-scan mode); otherwise all partners
  /// including q itself are emitted (the embedding mode). The returned
  /// reference is invalidated by the next call.
  const std::vector<PairCount>& Partners(SetId q, bool later_only);

  /// Total partners emitted by this scratch since construction.
  size_t pairs_emitted() const { return pairs_emitted_; }

 private:
  const ItemSetIndex* index_;
  const std::vector<char>* strict_item_;  // Null: every item is strict.
  std::vector<uint32_t> inter_;
  std::vector<uint32_t> inter_strict_;
  std::vector<SetId> touched_;
  std::vector<PairCount> out_;
  size_t pairs_emitted_ = 0;
};

/// Counter totals of one ScanOverlapChunks run.
struct OverlapScanStats {
  /// Intersecting pairs emitted across all chunks.
  size_t pairs_visited = 0;
  /// Of the n(n-1)/2 unordered pairs, how many were provably disjoint and
  /// never touched (meaningful when chunks probe with later_only).
  size_t pairs_pruned = 0;
};

/// Runs `chunk_fn` over [0, index.num_sets()) in parallel blocks, handing
/// each block a private OverlapScratch. `pool` null means the process
/// default pool. Increments kernel.pairs_visited / kernel.pairs_pruned and
/// wraps the scan in an OCT_SPAN.
OverlapScanStats ScanOverlapChunks(
    const ItemSetIndex& index, ThreadPool* pool,
    const std::function<void(size_t begin, size_t end, OverlapScratch& scratch)>&
        chunk_fn);

/// Sparse vector entry of a row-major matrix with sorted columns (the
/// storage of cct::Embeddings rows).
struct SparseVecEntry {
  uint32_t col;
  float value;
};

/// Condensed (upper-triangular, i < j) Euclidean distance matrix over
/// sparse rows: dist[i*n - i*(i+1)/2 + (j-i-1)] = ||row_i - row_j||.
/// Evaluated through dot products driven by a column-inverted index and
/// parallelized over rows; per-pair accumulation order matches the
/// ascending-column merge of cct::Embeddings::Distance, so results are
/// bit-identical to the serial oracle loop. `squared_norms[r]` must be
/// ||row_r||^2 as accumulated by the embedding builder.
std::vector<float> CondensedEuclideanDistances(
    const std::vector<std::vector<SparseVecEntry>>& rows,
    const std::vector<double>& squared_norms, ThreadPool* pool = nullptr);

/// Prefix-filter bounds (set-similarity-join style): the smallest
/// intersection any partner must have with a set of `size_a` items to
/// reach raw similarity >= t. Derivations (using |b| >= o):
///   Jaccard: o/(|a|+|b|-o) >= t  =>  o >= t*|a|
///   F1:      2o/(|a|+|b|)  >= t  =>  o >= t*|a|/(2-t)
/// A small epsilon slack keeps the bound conservative against the 1e-12
/// tolerance the merge band check uses. Consequence: a qualifying partner
/// shares an item among the first size_a - MinOverlap + 1 items of a (any
/// fixed order), so candidate generation may scan only that prefix.
size_t MinOverlapForJaccard(size_t size_a, double t);
size_t MinOverlapForF1(size_t size_a, double t);

}  // namespace kernel
}  // namespace oct

#endif  // OCT_KERNEL_PAIRWISE_H_
