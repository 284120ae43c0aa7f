#include "ctcr/ctcr.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/scoring.h"
#include "core/tree_index.h"
#include "core/tree_ops.h"
#include "fault/failpoint.h"
#include "kernel/item_set_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace ctcr {

namespace {

bool UsesThresholdBelowOne(const OctInput& input, const Similarity& sim) {
  if (sim.variant() == Variant::kExact) return false;
  if (sim.delta() < 1.0) return true;
  for (const auto& s : input.sets()) {
    if (s.delta_override >= 0.0 && s.delta_override < 1.0) return true;
  }
  return false;
}

bool UsesItemAssignment(const Similarity& sim) {
  switch (sim.variant()) {
    case Variant::kJaccardCutoff:
    case Variant::kJaccardThreshold:
    case Variant::kF1Cutoff:
    case Variant::kF1Threshold:
      return true;
    case Variant::kPerfectRecall:
    case Variant::kExact:
      return false;  // Recall errors are impossible; no duplicates arise.
  }
  return false;
}

std::string CategoryLabel(const OctInput& input, SetId q) {
  const std::string& label = input.set(q).label;
  if (!label.empty()) return label;
  return "C(q" + std::to_string(q) + ")";
}

}  // namespace

CtcrResult BuildCategoryTree(const OctInput& input, const Similarity& sim,
                             const CtcrOptions& options) {
  OCT_CHECK(input.Validate().ok()) << input.Validate().ToString();
  OCT_SPAN("ctcr/build_category_tree");
  static obs::Counter* runs =
      obs::MetricsRegistry::Default()->GetCounter("ctcr.runs");
  static obs::Counter* conflicts2_total =
      obs::MetricsRegistry::Default()->GetCounter("ctcr.conflicts2");
  static obs::Counter* conflicts3_total =
      obs::MetricsRegistry::Default()->GetCounter("ctcr.conflicts3");
  static obs::Histogram* conflicts_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.conflicts_us");
  static obs::Histogram* mis_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.mis_us");
  static obs::Histogram* build_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.build_us");
  // The construct passes of build_us, one histogram each.
  static obs::Histogram* place_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.place_us");
  static obs::Histogram* assign_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.assign_us");
  static obs::Histogram* intermediates_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.intermediates_us");
  static obs::Histogram* condense_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.condense_us");
  static obs::Histogram* finish_us =
      obs::MetricsRegistry::Default()->GetHistogram("ctcr.finish_us");
  runs->Increment();
  static obs::Counter* deadline_hits =
      obs::MetricsRegistry::Default()->GetCounter("ctcr.deadline_exceeded");

  CtcrResult result;
  result.status = OCT_FAILPOINT("ctcr.build");
  const size_t n = input.num_sets();
  const bool general = UsesThresholdBelowOne(input, sim);

  // The item -> sets index every phase of this run reads (built here once
  // unless the caller supplied one).
  kernel::ItemSetIndex local_index;
  const kernel::ItemSetIndex* index = options.index;
  if (index == nullptr) {
    local_index = kernel::ItemSetIndex::Build(input);
    index = &local_index;
  }
  OCT_DCHECK(&index->input() == &input);

  // Lines 1-9: ranking + conflict (hyper)graph.
  Timer timer;
  result.analysis = AnalyzeConflicts(*index, sim, /*find_3conflicts=*/general,
                                     options.pool);
  result.seconds_conflicts = timer.ElapsedSeconds();
  conflicts_us->Record(result.seconds_conflicts * 1e6);
  conflicts2_total->Increment(result.analysis.conflicts2.size());
  conflicts3_total->Increment(result.analysis.conflicts3.size());

  // Line 10: SolveMIS.
  timer.Reset();
  std::vector<SetId> independent;
  {
  OCT_SPAN("ctcr/solve_mis");
  if (result.analysis.conflicts3.empty()) {
    // conflicts2 is sorted-unique with first < second, so the bulk builder
    // skips the per-list sorting of Finalize().
    mis::Graph graph =
        mis::Graph::FromSortedUniquePairs(n, result.analysis.conflicts2);
    for (SetId q = 0; q < n; ++q) {
      graph.set_weight(q, input.set(q).weight);
    }
    mis::MisOptions mis_options = options.mis;
    mis_options.cancel = options.cancel;
    const mis::MisSolution sol = mis::SolveMis(graph, mis_options);
    independent.assign(sol.vertices.begin(), sol.vertices.end());
    result.mis_optimal = sol.optimal;
    result.independent_set_weight = sol.weight;
  } else {
    mis::Hypergraph hg(n);
    for (SetId q = 0; q < n; ++q) {
      hg.set_weight(q, input.set(q).weight);
    }
    for (const auto& [a, b] : result.analysis.conflicts2) {
      hg.AddEdge2(a, b);
    }
    for (const auto& t : result.analysis.conflicts3) {
      hg.AddEdge3(t[0], t[1], t[2]);
    }
    hg.Finalize();
    mis::HypergraphSolverOptions hg_options = options.hypergraph;
    hg_options.cancel = options.cancel;
    const mis::MisSolution sol = mis::SolveHypergraphMis(hg, hg_options);
    independent.assign(sol.vertices.begin(), sol.vertices.end());
    result.mis_optimal = sol.optimal;
    result.independent_set_weight = sol.weight;
  }
  }
  result.seconds_mis = timer.ElapsedSeconds();
  mis_us->Record(result.seconds_mis * 1e6);

  // Lines 11-26: construct the tree, one child span and ctcr.*_us
  // histogram per pass.
  timer.Reset();
  OCT_SPAN("ctcr/construct_tree");
  CategoryTree& tree = result.tree;
  std::vector<NodeId> cat_of(n, kInvalidNode);
  {
  OCT_SPAN("ctcr/place");
  Timer pass;
  // Lines 11-15: one category per surviving set; parent = the closest (max
  // rank) must-cover-together predecessor already in the tree.
  std::sort(independent.begin(), independent.end(), [&](SetId a, SetId b) {
    return result.analysis.rank[a] < result.analysis.rank[b];
  });
  result.independent_set = independent;
  std::vector<char> in_s(n, 0);
  for (SetId q : independent) in_s[q] = 1;
  for (SetId q : independent) {
    NodeId parent = tree.root();
    uint32_t best_rank = 0;
    bool found = false;
    for (SetId p : result.analysis.must_together[q]) {
      if (!in_s[p]) continue;
      if (result.analysis.rank[p] >= result.analysis.rank[q]) continue;
      if (!found || result.analysis.rank[p] > best_rank) {
        best_rank = result.analysis.rank[p];
        parent = cat_of[p];
        found = true;
      }
    }
    OCT_DCHECK(parent != kInvalidNode);
    cat_of[q] = tree.AddCategory(parent, CategoryLabel(input, q), q);
  }

  // Lines 16-19: items appearing only in same-branch sets go to the deepest
  // containing category. Cross-branch items ("duplicates") are deferred to
  // Algorithm 2 for the Jaccard/F1 variants; for Exact and Perfect-Recall
  // (where Algorithm 2 does not run) items with a relaxed bound are placed
  // on up to `bound` branches directly — "each item is duplicated according
  // to its bound" (Section 3.3, Extensions).
  {
    const TreeIndex shape = TreeIndex::Build(tree);
    const bool defer_duplicates = UsesItemAssignment(sim);
    std::vector<NodeId> nodes;
    for (ItemId item = 0; item < input.universe_size(); ++item) {
      nodes.clear();
      for (SetId q : index->SetsOf(item)) {
        if (in_s[q]) nodes.push_back(cat_of[q]);
      }
      if (nodes.empty()) continue;
      std::sort(nodes.begin(), nodes.end());
      nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
      // Group the containing categories into branch-chains; each chain gets
      // at most one copy, placed at its deepest node. Process nodes deepest
      // first so a chain is identified by its deepest member.
      std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
        return std::pair(shape.depth(b), a) < std::pair(shape.depth(a), b);
      });
      std::vector<NodeId> chain_heads;  // Deepest node of each chain.
      for (NodeId nd : nodes) {
        bool on_existing_chain = false;
        for (NodeId head : chain_heads) {
          if (tree.OnSameBranch(head, nd)) {
            on_existing_chain = true;
            break;
          }
        }
        if (!on_existing_chain) chain_heads.push_back(nd);
      }
      if (chain_heads.size() == 1) {
        tree.AssignItem(chain_heads[0], item);
        continue;
      }
      if (defer_duplicates) continue;  // Algorithm 2 will place copies.
      // Exact / Perfect-Recall: one copy per chain, up to the bound. When
      // chains exceed the bound (a higher-order bound conflict the pairwise
      // analysis cannot see), the heaviest chains win.
      const uint32_t bound = input.ItemBound(item);
      if (chain_heads.size() > bound) {
        std::vector<double> chain_weight(chain_heads.size(), 0.0);
        for (SetId q : index->SetsOf(item)) {
          if (!in_s[q]) continue;
          for (size_t c = 0; c < chain_heads.size(); ++c) {
            if (tree.OnSameBranch(chain_heads[c], cat_of[q])) {
              chain_weight[c] += input.set(q).weight;
            }
          }
        }
        std::vector<size_t> order(chain_heads.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return chain_weight[a] > chain_weight[b];
        });
        std::vector<NodeId> kept;
        for (size_t i = 0; i < bound; ++i) {
          kept.push_back(chain_heads[order[i]]);
        }
        chain_heads = std::move(kept);
      }
      for (NodeId head : chain_heads) tree.AssignItem(head, item);
    }
  }
  place_us->Record(pass.ElapsedSeconds() * 1e6);
  }

  // Line 20: Algorithm 2 (Jaccard / F1 variants only).
  if (UsesItemAssignment(sim)) {
    OCT_SPAN("ctcr/assign_items");
    Timer pass;
    AssignItemsOptions assign;
    assign.target_sets = independent;
    assign.cat_of = cat_of;
    result.assignment = AssignItems(input, sim, assign, &tree);
    assign_us->Record(pass.ElapsedSeconds() * 1e6);
  }

  // Lines 21-25 are refinement passes: they improve the tree but the model
  // is already valid without them, so they are the first work shed when the
  // build budget runs out.
  const bool out_of_budget = fault::Cancelled(options.cancel);

  // Lines 21-23: intermediate categories (recombine partitioned sets).
  if (!out_of_budget && options.add_intermediate_categories && general &&
      UsesItemAssignment(sim)) {
    OCT_SPAN("ctcr/intermediates");
    Timer pass;
    result.intermediates_added = AddIntermediateCategories(input, &tree);
    intermediates_us->Record(pass.ElapsedSeconds() * 1e6);
  }

  // Lines 24-25: condense (thresholds below 1 only).
  const NodeId exclude_cover =
      options.root_cover_candidate ? kInvalidNode : tree.root();
  if (!out_of_budget && options.condense && general) {
    OCT_SPAN("ctcr/condense");
    Timer pass;
    CondenseTree(*index, sim, &tree, exclude_cover);
    condense_us->Record(pass.ElapsedSeconds() * 1e6);
  }

  // Line 26: misc category with every unassigned item. Runs unless the
  // caller is building a per-component subtree (oct::delta) and will add
  // the universe-wide misc category once on the spliced tree instead.
  {
    OCT_SPAN("ctcr/finish");
    Timer pass;
    if (options.add_misc_category) AddMiscCategory(input, &tree);
    AnnotateCoveredSets(input, sim, &tree, exclude_cover);
    finish_us->Record(pass.ElapsedSeconds() * 1e6);
  }
  result.seconds_build = timer.ElapsedSeconds();
  build_us->Record(result.seconds_build * 1e6);
  if (result.status.ok() && fault::Cancelled(options.cancel)) {
    result.status = options.cancel->status();
  }
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_hits->Increment();
  }
  OCT_DCHECK(tree.ValidateModel(input).ok())
      << tree.ValidateModel(input).ToString();
  return result;
}

}  // namespace ctcr
}  // namespace oct
