#include "data/preprocess.h"

#include <algorithm>
#include <unordered_set>

#include "kernel/bitset.h"
#include "kernel/item_set_index.h"
#include "kernel/pairwise.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace data {

namespace {

/// Whether the merge band measures F1 (the variant's raw function for
/// Jaccard/F1; Jaccard for the asymmetric / binary variants).
bool MergeBandUsesF1(const Similarity& sim) {
  switch (sim.variant()) {
    case Variant::kF1Cutoff:
    case Variant::kF1Threshold:
      return true;
    default:
      return false;
  }
}

/// Raw symmetric similarity used for the merge band, from precomputed
/// sizes and intersection.
double MergeSimilarityFromSizes(const Similarity& sim, size_t size_a,
                                size_t size_b, size_t inter) {
  return MergeBandUsesF1(sim) ? F1FromSizes(size_a, size_b, inter)
                              : JaccardFromSizes(size_a, size_b, inter);
}

/// Number of distinct existing-tree top-level subtrees the items of `set`
/// occupy. The paper's filter targets queries "scattered across many
/// *distant* categories"; sibling leaves under one department are close, so
/// the spread is measured at the department (root-child) level.
size_t BranchSpread(const std::vector<NodeId>& top_level_of_item,
                    const ItemSet& set) {
  std::unordered_set<NodeId> branches;
  for (ItemId item : set) {
    const NodeId node = top_level_of_item[item];
    if (node != kInvalidNode) branches.insert(node);
  }
  return branches.size();
}

}  // namespace

double DefaultRelevanceThreshold(Variant variant) {
  switch (variant) {
    case Variant::kPerfectRecall:
    case Variant::kExact:
      return 0.9;
    default:
      return 0.8;
  }
}

void MergeSimilarSets(const Similarity& sim, size_t max_passes,
                      std::vector<CandidateSet>* sets) {
  const double band_low = sim.delta() + 0.75 * (1.0 - sim.delta());
  const bool use_f1 = MergeBandUsesF1(sim);
  static obs::Counter* bitset_hits =
      obs::MetricsRegistry::Default()->GetCounter("kernel.bitset_hits");
  // Universe bound for the probe bitmap and the index (items are sorted, so
  // the last one of each set is its maximum).
  size_t universe = 0;
  for (const CandidateSet& cs : *sets) {
    if (!cs.items.empty()) {
      universe = std::max<size_t>(universe, cs.items.items().back() + 1);
    }
  }
  kernel::BitSet probe(universe);
  // Item -> sets of this pass, in ascending set order.
  kernel::ItemPostings postings;
  for (size_t pass = 0; pass < max_passes; ++pass) {
    bool merged_any = false;
    postings.Assign(*sets, universe);
    std::vector<char> dead(sets->size(), 0);
    std::vector<size_t> candidates;
    for (size_t i = 0; i < sets->size(); ++i) {
      if (dead[i]) continue;
      // Collect intersecting partners with a larger index. Prefix filter:
      // a partner inside the band needs an intersection of at least o_min
      // items, so it must share one of the first |i| - o_min + 1 items
      // (kernel/pairwise.h); items past the prefix cannot produce an
      // in-band partner on their own. Partners that only enter the band
      // after this set grows through merges are picked up by a later pass.
      const ItemSet& items_i = (*sets)[i].items;
      const size_t o_min =
          use_f1 ? kernel::MinOverlapForF1(items_i.size(), band_low)
                 : kernel::MinOverlapForJaccard(items_i.size(), band_low);
      const size_t prefix =
          items_i.size() >= o_min ? items_i.size() - o_min + 1 : 0;
      candidates.clear();
      for (size_t p = 0; p < prefix; ++p) {
        for (SetId j : postings.SetsOf(items_i.items()[p])) {
          if (j > i && !dead[j]) candidates.push_back(j);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      // Probe candidates against a bitmap of set i — O(|candidate|) per
      // pair instead of a merge, and after a merge only the new items need
      // setting (the union grows monotonically).
      probe.SetAll(items_i);
      for (size_t j : candidates) {
        if (dead[i] || dead[j]) continue;
        auto& a = (*sets)[i];
        auto& b = (*sets)[j];
        const size_t inter = probe.IntersectionCount(b.items);
        bitset_hits->Increment();
        const double s =
            MergeSimilarityFromSizes(sim, a.items.size(), b.items.size(), inter);
        if (s + 1e-12 >= band_low) {
          // Merge j into i: union of items, combined weight; keep the label
          // of the heavier set.
          if (b.weight > a.weight) a.label = b.label;
          a.items = a.items.Union(b.items);
          a.weight += b.weight;
          probe.SetAll(b.items);
          dead[j] = 1;
          merged_any = true;
        }
      }
      probe.ClearAll((*sets)[i].items);
    }
    std::vector<CandidateSet> kept;
    kept.reserve(sets->size());
    for (size_t i = 0; i < sets->size(); ++i) {
      if (!dead[i]) kept.push_back(std::move((*sets)[i]));
    }
    *sets = std::move(kept);
    if (!merged_any) break;
  }
}

OctInput BuildOctInput(const SearchEngine& engine,
                       const std::vector<LoggedQuery>& log,
                       const CategoryTree& existing_tree,
                       const Similarity& sim,
                       const PreprocessOptions& options,
                       PreprocessStats* stats) {
  OCT_SPAN("data/build_oct_input");
  static obs::Counter* raw_queries_counter =
      obs::MetricsRegistry::Default()->GetCounter("data.raw_queries");
  static obs::Counter* kept_sets_counter =
      obs::MetricsRegistry::Default()->GetCounter("data.kept_sets");
  static obs::Histogram* result_sets_us =
      obs::MetricsRegistry::Default()->GetHistogram("data.result_sets_us");
  static obs::Histogram* merge_us =
      obs::MetricsRegistry::Default()->GetHistogram("data.merge_us");
  PreprocessStats local;
  local.raw_queries = log.size();
  raw_queries_counter->Increment(log.size());

  // Top-level existing-tree subtree per item (for the scatter filter).
  const size_t universe = engine.catalog().num_items();
  std::vector<NodeId> placement(universe, kInvalidNode);
  {
    OCT_SPAN("data/placement_map");
    for (NodeId id = 0; id < existing_tree.num_nodes(); ++id) {
      if (!existing_tree.IsAlive(id)) continue;
      // Walk up to the child of the root.
      NodeId top = id;
      while (top != existing_tree.root() &&
             existing_tree.node(top).parent != existing_tree.root() &&
             existing_tree.node(top).parent != kInvalidNode) {
        top = existing_tree.node(top).parent;
      }
      for (ItemId item : existing_tree.node(id).direct_items) {
        if (item < universe) placement[item] = top;
      }
    }
  }

  // Stage 1a: frequency filter over the window (the window is the full 90
  // days by default; a small window with recent_window_only capitalizes on
  // short-lived trends).
  std::vector<const LoggedQuery*> frequent;
  for (const LoggedQuery& lq : log) {
    if (lq.MinDailyRecent(options.window_days) >= options.min_daily_count) {
      frequent.push_back(&lq);
    }
  }
  local.after_frequency_filter = frequent.size();

  // Stage 2 + 1b: result sets, then the branch-scatter filter.
  std::vector<CandidateSet> sets;
  sets.reserve(frequent.size());
  {
    OCT_SPAN("data/result_sets");
    Timer timer;
    for (const LoggedQuery* lq : frequent) {
      ItemSet result =
          engine.ResultSet(lq->query, options.relevance_threshold);
      if (result.empty()) {
        ++local.empty_result_sets;
        continue;
      }
      if (BranchSpread(placement, result) > options.max_existing_branches) {
        continue;
      }
      CandidateSet cs;
      cs.items = std::move(result);
      cs.weight = options.uniform_weights
                      ? 1.0
                      : (options.recent_window_only
                             ? lq->AverageDailyRecent(options.window_days)
                             : lq->AverageDaily());
      cs.label = lq->query.Text(engine.catalog());
      sets.push_back(std::move(cs));
    }
    result_sets_us->Record(timer.ElapsedSeconds() * 1e6);
  }
  local.after_scatter_filter = sets.size();

  // Stage 4: merge near-duplicate result sets.
  if (options.merge_similar) {
    OCT_SPAN("data/merge_similar_sets");
    Timer timer;
    MergeSimilarSets(sim, options.merge_passes, &sets);
    merge_us->Record(timer.ElapsedSeconds() * 1e6);
  }
  local.after_merge = sets.size();
  kept_sets_counter->Increment(sets.size());

  OctInput input(universe);
  for (auto& cs : sets) input.Add(std::move(cs));
  OCT_CHECK(input.Validate().ok()) << input.Validate().ToString();
  if (stats != nullptr) *stats = local;
  return input;
}

}  // namespace data
}  // namespace oct
