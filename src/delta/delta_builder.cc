#include "delta/delta_builder.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "cct/cct.h"
#include "core/scoring.h"
#include "core/tree_ops.h"
#include "ctcr/ctcr.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace delta {

namespace {

/// A deadline hit degrades but does not fail; everything else non-OK does.
bool IsFailure(const Status& status) {
  return !status.ok() && status.code() != StatusCode::kDeadlineExceeded;
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// One-worker pool shared by every component and plain build in the
/// process: ParallelFor on it always runs inline on the calling thread, so
/// concurrent builds stay independent and deterministic, and no build
/// spawns (and joins) a thread of its own.
ThreadPool* SerialPool() {
  static ThreadPool* pool = new ThreadPool(1);
  return pool;
}

/// Counts one spliced tree handed out: its rebuilt and reused components
/// and its end-to-end latency.
void RecordSplicedTree(const DeltaApplyOutcome& outcome, double seconds,
                       DeltaStats* stats) {
  stats->components_rebuilt.Increment(outcome.dirty_components);
  stats->components_reused.Increment(outcome.reused_components);
  stats->sets_rebuilt.Increment(outcome.sets_rebuilt);
  stats->last_dirty_components.Set(
      static_cast<int64_t>(outcome.dirty_components));
  stats->splices.Increment();
  stats->apply_us.Record(seconds * 1e6);
}

void AppendCanon(const CategoryTree& tree, NodeId id, std::string* out) {
  std::vector<std::string> children;
  children.reserve(tree.node(id).children.size());
  for (NodeId child : tree.node(id).children) {
    if (!tree.IsAlive(child)) continue;
    std::string canon;
    AppendCanon(tree, child, &canon);
    children.push_back(std::move(canon));
  }
  // Child order is a construction artifact, not category structure; sort so
  // the canonical form is order-insensitive.
  std::sort(children.begin(), children.end());
  out->push_back('(');
  out->append(tree.node(id).label);
  out->push_back('|');
  out->append(tree.node(id).direct_items.ToString());
  for (const std::string& child : children) out->append(child);
  out->push_back(')');
}

}  // namespace

DeltaBuilder::DeltaBuilder(Similarity sim, DeltaBuilderOptions options)
    : sim_(std::move(sim)),
      options_(std::move(options)),
      working_(options_.universe_floor) {
  OCT_CHECK(options_.max_dirty_fraction > 0.0);
}

uint64_t DeltaBuilder::ComponentSignature(
    const std::vector<uint32_t>& slots) const {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint32_t slot : slots) {
    h = MixHash(h, slot);
    h = MixHash(h, working_.version(slot));
  }
  return h;
}

std::shared_ptr<DeltaBuilder::ComponentResult> DeltaBuilder::BuildComponent(
    std::vector<uint32_t> slots) const {
  OCT_SPAN("delta/build_component");
  Timer timer;
  auto result = std::make_shared<ComponentResult>();

  // Renumber the component's items densely into a local universe 0..k-1,
  // in ascending global order, so the local input — and hence the build —
  // is a pure function of component content, and no pass of the build
  // scales with the global universe. That purity is what makes cached
  // subtrees bit-compatible with a later fresh rebuild even after the
  // global universe has grown; keeping the item order keeps every
  // item-ordered tie-break of the build. GraftComponent maps back.
  std::vector<ItemId>& items = result->items;
  for (uint32_t slot : slots) {
    const ItemSet& set_items = working_.set(slot).items;
    items.insert(items.end(), set_items.begin(), set_items.end());
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  OctInput local(items.size());
  for (uint32_t slot : slots) {
    CandidateSet set = working_.set(slot);
    std::vector<ItemId> local_ids;
    local_ids.reserve(set.items.size());
    for (ItemId item : set.items) {
      local_ids.push_back(static_cast<ItemId>(
          std::lower_bound(items.begin(), items.end(), item) - items.begin()));
    }
    set.items = ItemSet::FromSorted(std::move(local_ids));
    local.Add(std::move(set));
  }

  // Condense runs here, component-locally, so cached subtrees arrive at
  // the splice fully refined and the splice itself stays O(tree copy) —
  // but with root_cover_candidate off: condense keeps a category only when
  // it is the *best* cover of some set, and the component-local root's
  // full item set equals the undiluted component union, so it would steal
  // best-cover designations that the global root — diluted by every other
  // component's items — never wins, condensing away the component's own
  // top-level categories. Barring the local root restores the batch
  // pipeline's choices for every set except one that spans most of the
  // whole universe (the epsilon score anchor absorbs that corner).
  if (options_.algorithm == DeltaBuilderOptions::Algorithm::kCct) {
    cct::CctOptions opts;
    opts.condense = options_.condense;
    opts.root_cover_candidate = false;
    opts.add_misc_category = false;
    opts.pool = SerialPool();
    cct::CctResult built = cct::BuildCategoryTree(local, sim_, opts);
    result->local_tree = std::move(built.tree);
    result->status = std::move(built.status);
  } else {
    ctcr::CtcrOptions opts;
    opts.add_intermediate_categories = options_.add_intermediate_categories;
    opts.condense = options_.condense;
    opts.root_cover_candidate = false;
    opts.add_misc_category = false;
    opts.pool = SerialPool();
    ctcr::CtcrResult built = ctcr::BuildCategoryTree(local, sim_, opts);
    result->local_tree = std::move(built.tree);
    result->status = std::move(built.status);
  }
  result->slots = std::move(slots);
  stats_.component_build_us.Record(timer.ElapsedSeconds() * 1e6);
  return result;
}

void DeltaBuilder::GraftComponent(const ComponentResult& component,
                                  const std::vector<uint32_t>& slot_to_index,
                                  CategoryTree* tree) {
  const CategoryTree& local = component.local_tree;
  auto remap_set = [&](SetId local_id) -> SetId {
    if (local_id == kInvalidSet || local_id >= component.slots.size()) {
      return kInvalidSet;
    }
    const uint32_t index = slot_to_index[component.slots[local_id]];
    return index == kInvalidSlot ? kInvalidSet : index;
  };

  // The local root corresponds to the global root: merge its direct items
  // (condensing can push items up to it) and covered sets, then graft its
  // children as new top-level subtrees, preserving child order.
  // Local item ids are ranks in component.items, so mapping back keeps
  // every item set sorted.
  auto remap_items = [&](const ItemSet& local_items) {
    std::vector<ItemId> global;
    global.reserve(local_items.size());
    for (ItemId item : local_items) global.push_back(component.items[item]);
    return ItemSet::FromSorted(std::move(global));
  };

  const CategoryNode& local_root = local.node(local.root());
  for (ItemId item : local_root.direct_items) {
    tree->AssignItem(tree->root(), component.items[item]);
  }
  for (SetId covered : local_root.covered_sets) {
    const SetId mapped = remap_set(covered);
    if (mapped != kInvalidSet) {
      tree->mutable_node(tree->root()).covered_sets.push_back(mapped);
    }
  }

  struct Frame {
    NodeId local_node;
    NodeId parent;
  };
  std::vector<Frame> stack;
  for (auto it = local_root.children.rbegin(); it != local_root.children.rend();
       ++it) {
    if (local.IsAlive(*it)) stack.push_back({*it, tree->root()});
  }
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const CategoryNode& source = local.node(frame.local_node);
    const NodeId id = tree->AddCategory(frame.parent, source.label,
                                        remap_set(source.source_set));
    CategoryNode& added = tree->mutable_node(id);
    added.direct_items = remap_items(source.direct_items);
    added.covered_sets.reserve(source.covered_sets.size());
    for (SetId covered : source.covered_sets) {
      const SetId mapped = remap_set(covered);
      if (mapped != kInvalidSet) added.covered_sets.push_back(mapped);
    }
    for (auto it = source.children.rbegin(); it != source.children.rend();
         ++it) {
      if (local.IsAlive(*it)) stack.push_back({*it, id});
    }
  }
}

Status DeltaBuilder::ResolveAndSplice(
    const WorkingSet::Components& components, bool bypass_cache,
    DeltaApplyOutcome* outcome) {
  Timer rebuild_timer;
  const size_t n = components.members.size();
  outcome->total_components = n;
  outcome->sets_total = working_.num_alive();

  // Impact: a component is dirty exactly when its content signature misses
  // the cache — touched slots bump versions, membership changes (component
  // splits/merges) change the slot list, and either invalidates the key.
  std::vector<uint64_t> signatures(n);
  std::vector<std::shared_ptr<ComponentResult>> resolved(n);
  std::vector<size_t> dirty;
  for (size_t i = 0; i < n; ++i) {
    signatures[i] = ComponentSignature(components.members[i]);
    if (!bypass_cache) {
      auto it = cache_.find(signatures[i]);
      if (it != cache_.end() && it->second->slots == components.members[i]) {
        it->second->last_used_batch = batch_counter_;
        resolved[i] = it->second;
        continue;
      }
    }
    dirty.push_back(i);
    outcome->sets_rebuilt += components.members[i].size();
  }

  // Drift bound: past it, piecewise splicing costs more than the batch
  // run — drop the cache and rebuild every component fresh.
  if (!bypass_cache && outcome->sets_total > 0 &&
      static_cast<double>(outcome->sets_rebuilt) /
              static_cast<double>(outcome->sets_total) >
          options_.max_dirty_fraction) {
    outcome->fallback_full = true;
    cache_.clear();
    dirty.clear();
    for (size_t i = 0; i < n; ++i) {
      resolved[i] = nullptr;
      dirty.push_back(i);
    }
    outcome->sets_rebuilt = outcome->sets_total;
  }
  outcome->dirty_components = dirty.size();
  outcome->reused_components = n - dirty.size();

  if (!dirty.empty()) {
    OCT_RETURN_NOT_OK(OCT_FAILPOINT("delta.component"));
    OCT_SPAN("delta/rebuild_dirty");
    if (options_.pool != nullptr && dirty.size() > 1) {
      // Latch, not ThreadPool::WaitIdle: WaitIdle would also wait on
      // unrelated tasks when the caller shares the pool.
      std::mutex mu;
      std::condition_variable cv;
      size_t remaining = dirty.size();
      for (size_t k = 0; k < dirty.size(); ++k) {
        const size_t index = dirty[k];
        options_.pool->Submit([this, &components, &resolved, &mu, &cv,
                               &remaining, index] {
          auto built = BuildComponent(components.members[index]);
          std::lock_guard<std::mutex> lock(mu);
          resolved[index] = std::move(built);
          if (--remaining == 0) cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return remaining == 0; });
    } else {
      for (size_t index : dirty) {
        resolved[index] = BuildComponent(components.members[index]);
      }
    }
    for (size_t index : dirty) {
      if (IsFailure(resolved[index]->status)) return resolved[index]->status;
    }
    // Cache insertion stays on the applying thread.
    for (size_t index : dirty) {
      resolved[index]->last_used_batch = batch_counter_;
      cache_[signatures[index]] = resolved[index];
    }
  }
  outcome->seconds_rebuild = rebuild_timer.ElapsedSeconds();

  Timer splice_timer;
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("delta.splice"));
  {
    OCT_SPAN("delta/splice");
    std::vector<uint32_t> slot_to_index;
    const OctInput cumulative = working_.Materialize(&slot_to_index);
    CategoryTree tree;
    for (size_t i = 0; i < n; ++i) {
      GraftComponent(*resolved[i], slot_to_index, &tree);
    }
    // Condense and coverage annotation already ran component-locally
    // (BuildComponent bars the local root from cover candidacy, and
    // GraftComponent remapped covered_sets to cumulative ids), so the only
    // global stage is the universe-wide misc category. This is what keeps
    // splice cost proportional to tree size rather than to a full
    // input-vs-tree scoring pass.
    AddMiscCategory(cumulative, &tree);
    OCT_DCHECK(tree.ValidateModel(cumulative).ok())
        << tree.ValidateModel(cumulative).ToString();
    outcome->tree = std::move(tree);
  }
  outcome->seconds_splice = splice_timer.ElapsedSeconds();
  stats_.splice_us.Record(outcome->seconds_splice * 1e6);

  // Prune cache entries whose component shape has not recurred lately
  // (superseded signatures are unreachable and would otherwise leak).
  if (options_.cache_ttl_batches > 0) {
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second->last_used_batch + options_.cache_ttl_batches <
          batch_counter_) {
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::OK();
}

Result<DeltaApplyOutcome> DeltaBuilder::ApplyBatch(const DeltaBatch& batch) {
  OCT_SPAN("delta/apply_batch");
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("delta.apply"));
  Timer total;
  ++batch_counter_;

  const ApplyOpsResult applied = working_.ApplyBatch(batch);
  stats_.batches.Increment();
  stats_.ops_applied.Increment(applied.ops_applied);
  stats_.ops_noop.Increment(applied.ops_noop);

  DeltaApplyOutcome outcome;
  outcome.touched_slots = applied.touched_slots.size();
  Timer impact_timer;
  WorkingSet::Components components;
  {
    OCT_SPAN("delta/impact");
    components = working_.ComputeComponents();
  }
  outcome.seconds_impact = impact_timer.ElapsedSeconds();
  stats_.impact_us.Record(outcome.seconds_impact * 1e6);
  stats_.working_sets.Set(static_cast<int64_t>(working_.num_alive()));
  stats_.components_total.Set(static_cast<int64_t>(components.members.size()));

  OCT_RETURN_NOT_OK(ResolveAndSplice(components, /*bypass_cache=*/false,
                                     &outcome));
  if (outcome.fallback_full) stats_.fallbacks_full.Increment();
  RecordSplicedTree(outcome, total.ElapsedSeconds(), &stats_);
  return outcome;
}

Result<DeltaApplyOutcome> DeltaBuilder::FullRebuild() {
  OCT_SPAN("delta/full_rebuild");
  Timer total;
  ++batch_counter_;
  cache_.clear();

  DeltaApplyOutcome outcome;
  Timer impact_timer;
  const WorkingSet::Components components = working_.ComputeComponents();
  outcome.seconds_impact = impact_timer.ElapsedSeconds();
  stats_.working_sets.Set(static_cast<int64_t>(working_.num_alive()));
  stats_.components_total.Set(static_cast<int64_t>(components.members.size()));
  OCT_RETURN_NOT_OK(ResolveAndSplice(components, /*bypass_cache=*/true,
                                     &outcome));
  RecordSplicedTree(outcome, total.ElapsedSeconds(), &stats_);
  return outcome;
}

CategoryTree DeltaBuilder::PlainTree() const {
  const OctInput cumulative = CumulativeInput();
  if (options_.algorithm == DeltaBuilderOptions::Algorithm::kCct) {
    cct::CctOptions opts;
    opts.condense = options_.condense;
    opts.pool = SerialPool();
    return cct::BuildCategoryTree(cumulative, sim_, opts).tree;
  }
  ctcr::CtcrOptions opts;
  opts.add_intermediate_categories = options_.add_intermediate_categories;
  opts.condense = options_.condense;
  opts.pool = SerialPool();
  return ctcr::BuildCategoryTree(cumulative, sim_, opts).tree;
}

Status DeltaBuilder::VerifyEquivalence(const CategoryTree& spliced,
                                       double epsilon) {
  OCT_SPAN("delta/verify_equivalence");
  // Anchor 1 — exact: a fresh sharded rebuild (cache bypassed) must agree
  // canonically. Any divergence means cache reuse changed the result.
  DeltaApplyOutcome fresh;
  const WorkingSet::Components components = working_.ComputeComponents();
  OCT_RETURN_NOT_OK(ResolveAndSplice(components, /*bypass_cache=*/true,
                                     &fresh));
  const bool structural_ok =
      CanonicalTreeString(spliced) == CanonicalTreeString(fresh.tree);

  // Anchor 2 — epsilon: normalized score against the plain full-batch
  // pipeline on the same cumulative input.
  const OctInput cumulative = CumulativeInput();
  const double sharded_score =
      ScoreTree(cumulative, spliced, sim_, nullptr).normalized;
  const double plain_score =
      ScoreTree(cumulative, PlainTree(), sim_, nullptr).normalized;
  const double gap = std::abs(sharded_score - plain_score);
  const bool score_ok = gap <= epsilon;

  stats_.equivalence_checks.Increment();
  if (!structural_ok || !score_ok) stats_.equivalence_failures.Increment();
  if (!structural_ok) {
    return Status::Internal(
        "delta equivalence: spliced tree diverges structurally from a "
        "fresh sharded rebuild of the cumulative input");
  }
  if (!score_ok) {
    return Status::Internal(
        "delta equivalence: normalized score gap vs the plain batch tree "
        "is " +
        std::to_string(gap) + ", beyond epsilon " + std::to_string(epsilon) +
        " (sharded " + std::to_string(sharded_score) + ", plain " +
        std::to_string(plain_score) + ")");
  }
  return Status::OK();
}

std::string DeltaBuilder::CanonicalTreeString(const CategoryTree& tree) {
  std::string out;
  AppendCanon(tree, tree.root(), &out);
  return out;
}

}  // namespace delta
}  // namespace oct
