// DeltaBuilder: incremental re-resolution — the computational core of
// oct::delta.
//
// The lever is a locality property of the whole CTCR pipeline: take the
// intersection graph over candidate sets (an edge when two sets share an
// item) and its connected components. Conflicts (2- and 3-), must-cover-
// together pairs, parent selection, item chains, Algorithm 2's greedy
// (its global argmax interleaves but never crosses components), and
// condensing all operate strictly within a component — sets in different
// components have zero overlap, hence zero similarity, hence no
// interaction. Two stages are *not* component-local and are handled at
// splice time: the universe-wide misc category (added once on the spliced
// tree) and the root-level intermediate-categories pass (skipped at the
// root by shard policy — see DESIGN.md §11 for the exact policy
// statement).
//
// So the builder maintains, per component, a locally-built subtree keyed
// by a content signature over its (slot, version) pairs. A delta batch
// bumps versions of touched slots; components whose signature misses the
// cache are the *dirty frontier* and get rebuilt (in parallel when a pool
// is provided); clean components splice straight from the cache. When the
// dirty frontier exceeds `max_dirty_fraction` of the working set, the
// builder falls back to a full rebuild (every component fresh) — past
// that bound the piecewise path costs more than the batch run.
//
// Equivalence anchors (the harness in VerifyEquivalence):
//  1. Exact: the incremental tree is canonically identical to a fresh
//     sharded rebuild of the same cumulative input — cache reuse is
//     invisible. This holds because local builds are deterministic
//     functions of component content alone.
//  2. Epsilon: its normalized score is within epsilon of the plain
//     full-batch ctcr/cct tree on the same input. Sharded and plain trees
//     may differ structurally (root-level intermediates; the MIS node
//     budget is per-component here, shared there) but must agree on
//     quality.
//
// Single-writer: one thread calls ApplyBatch/FullRebuild at a time.
// `options.pool` parallelizes *within* one call; it must not be the pool
// the calling task itself runs on (the call blocks on a latch).

#ifndef OCT_DELTA_DELTA_BUILDER_H_
#define OCT_DELTA_DELTA_BUILDER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/category_tree.h"
#include "core/similarity.h"
#include "delta/delta_log.h"
#include "delta/delta_stats.h"
#include "delta/working_set.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace oct {
namespace delta {

struct DeltaBuilderOptions {
  /// Per-component construction algorithm.
  enum class Algorithm { kCtcr, kCct };
  Algorithm algorithm = Algorithm::kCtcr;
  /// Drift bound: when the dirty frontier covers more than this fraction
  /// of the alive candidate sets, fall back to a full rebuild.
  double max_dirty_fraction = 0.3;
  /// Pool for parallel dirty-component rebuilds (null = serial). Must be a
  /// pool the calling thread does not run on.
  ThreadPool* pool = nullptr;
  /// Refinement passthrough (match CtcrOptions defaults).
  bool add_intermediate_categories = true;
  bool condense = true;
  /// Cached component subtrees unused for this many batches are pruned
  /// (0 = keep forever).
  uint64_t cache_ttl_batches = 16;
  /// Initial universe size of the working set (it still grows past this as
  /// upserts arrive). Set to the catalog size so the spliced tree's misc
  /// category covers the full catalog, exactly like a batch rebuild.
  size_t universe_floor = 0;
};

/// What one ApplyBatch / FullRebuild produced.
struct DeltaApplyOutcome {
  /// The spliced cumulative tree (valid when status.ok()).
  CategoryTree tree;
  bool fallback_full = false;
  size_t total_components = 0;
  size_t dirty_components = 0;
  size_t reused_components = 0;
  /// Candidate sets inside dirty components / alive sets overall.
  size_t sets_rebuilt = 0;
  size_t sets_total = 0;
  size_t touched_slots = 0;
  double seconds_impact = 0.0;
  double seconds_rebuild = 0.0;
  double seconds_splice = 0.0;
};

class DeltaBuilder {
 public:
  /// `stats` may be null. The builder owns its working set.
  explicit DeltaBuilder(Similarity sim, DeltaBuilderOptions options = {},
                        DeltaStats* stats = nullptr);

  DeltaBuilder(const DeltaBuilder&) = delete;
  DeltaBuilder& operator=(const DeltaBuilder&) = delete;

  const WorkingSet& working_set() const { return working_; }
  WorkingSet* mutable_working_set() { return &working_; }

  /// Applies `batch` to the working set, rebuilds the dirty frontier (or
  /// everything, past the drift bound), and returns the spliced cumulative
  /// tree. On error (injected delta.* failpoints) the working set HAS
  /// absorbed the batch but no tree is produced; the next successful call
  /// re-resolves the accumulated dirty region — recovery is automatic.
  Result<DeltaApplyOutcome> ApplyBatch(const DeltaBatch& batch);

  /// Full rebuild of the cumulative state: every component fresh,
  /// repopulating the cache. The latency baseline ApplyBatch is measured
  /// against, and the fallback target.
  Result<DeltaApplyOutcome> FullRebuild();

  /// Plain (non-sharded) full-batch tree on the cumulative input — the
  /// paper's batch pipeline, used as the epsilon anchor.
  CategoryTree PlainTree() const;

  /// The cumulative input (alive sets, ascending slot order).
  OctInput CumulativeInput() const { return working_.Materialize(nullptr); }

  /// The equivalence harness. Checks (1) canonical equality of `spliced`
  /// against a fresh sharded rebuild (cache bypassed) and (2) normalized
  /// score within `epsilon` of PlainTree(). Returns OK or an Internal
  /// error describing the divergence.
  Status VerifyEquivalence(const CategoryTree& spliced, double epsilon);

  /// Canonical child-order-insensitive rendering: two trees are the same
  /// category structure iff their canonical strings match.
  static std::string CanonicalTreeString(const CategoryTree& tree);

  size_t cache_size() const { return cache_.size(); }

 private:
  struct ComponentResult {
    /// Locally-built subtree; source_set / covered_sets hold *local* ids
    /// (positions in `slots`) and direct items local item ids (positions
    /// in `items`), both remapped at splice time.
    CategoryTree local_tree;
    std::vector<uint32_t> slots;
    /// Local -> global item id: the component's items, ascending.
    std::vector<ItemId> items;
    /// Build status (OK, kDeadlineExceeded, or an injected build error).
    Status status = Status::OK();
    uint64_t last_used_batch = 0;
  };

  /// Content signature of a component: hash over ordered (slot, version).
  uint64_t ComponentSignature(const std::vector<uint32_t>& slots) const;
  /// Builds one component's local subtree (pure function of its content).
  std::shared_ptr<ComponentResult> BuildComponent(
      std::vector<uint32_t> slots) const;
  /// Rebuilds dirty components, splices everything, fills `outcome`.
  Status ResolveAndSplice(const WorkingSet::Components& components,
                          bool bypass_cache, DeltaApplyOutcome* outcome);
  /// Grafts one component subtree under `tree`'s root, remapping set ids
  /// from local positions to cumulative-input indices and item ids from
  /// the component's local universe to global ids.
  static void GraftComponent(const ComponentResult& component,
                             const std::vector<uint32_t>& slot_to_index,
                             CategoryTree* tree);

  const Similarity sim_;
  const DeltaBuilderOptions options_;
  DeltaStats* const stats_;
  WorkingSet working_;
  std::unordered_map<uint64_t, std::shared_ptr<ComponentResult>> cache_;
  uint64_t batch_counter_ = 0;
};

}  // namespace delta
}  // namespace oct

#endif  // OCT_DELTA_DELTA_BUILDER_H_
