#include "core/item_assignment.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "core/tree_index.h"
#include "util/logging.h"

namespace oct {

namespace {
constexpr double kEps = 1e-9;

/// Ceil of `x` robust to floating-point jitter just above an integer.
size_t CeilSafe(double x) {
  if (x <= 0.0) return 0;
  const double c = std::ceil(x - kEps);
  return static_cast<size_t>(c);
}
}  // namespace

size_t CoverGapFromSizes(const Similarity& sim, size_t q_size, size_t c_size,
                         size_t inter, double delta_override) {
  constexpr size_t kImpossible = std::numeric_limits<size_t>::max();
  const double delta =
      delta_override >= 0.0 ? delta_override : sim.delta();
  const double q = static_cast<double>(q_size);
  const double c = static_cast<double>(c_size);
  const double i = static_cast<double>(inter);
  OCT_DCHECK_LE(inter, q_size);
  OCT_DCHECK_LE(inter, c_size);
  switch (sim.variant()) {
    case Variant::kJaccardCutoff:
    case Variant::kJaccardThreshold: {
      // Adding t items of q to the category keeps |q ∪ C| fixed at
      // q + c - i, so J = (i + t) / (q + c - i) >= delta.
      const size_t t = CeilSafe(delta * (q + c - i) - i);
      return t > q_size - inter ? kImpossible : t;
    }
    case Variant::kF1Cutoff:
    case Variant::kF1Threshold: {
      // F1 = 2(i + t) / (q + c + t) >= delta  =>  t >= (δ(q+c) - 2i)/(2-δ).
      const size_t t = CeilSafe((delta * (q + c) - 2.0 * i) / (2.0 - delta));
      return t > q_size - inter ? kImpossible : t;
    }
    case Variant::kPerfectRecall: {
      // Recall must reach 1: t = q - i; precision then is q / (c + q - i).
      const size_t t = q_size - inter;
      const double precision = q / (c + q - i);
      return precision + kEps >= delta ? t : kImpossible;
    }
    case Variant::kExact: {
      // The category must become exactly q: no foreign items allowed.
      if (c_size != inter) return kImpossible;
      return q_size - inter;
    }
  }
  return kImpossible;
}

namespace {

constexpr size_t kImpossibleGap = std::numeric_limits<size_t>::max();

/// Mutable state shared by the two stages of Algorithm 2.
class Assignment {
 public:
  Assignment(const OctInput& input, const Similarity& sim,
             const AssignItemsOptions& options, CategoryTree* tree)
      : input_(input),
        sim_(sim),
        cutoff_sim_(sim.CutoffCounterpart()),
        options_(options),
        tree_(tree) {
    Init();
  }

  AssignItemsStats Run() {
    CoverLoop();
    AssignLeftovers();
    return stats_;
  }

 private:
  void Init() {
    const size_t n_nodes = tree_->num_nodes();
    const size_t n_sets = input_.num_sets();
    OCT_CHECK_EQ(options_.cat_of.size(), n_sets);

    // Euler intervals for O(1) subtree tests (structure is fixed here).
    tin_.assign(n_nodes, 0);
    tout_.assign(n_nodes, 0);
    size_t clock = 0;
    auto dfs = [&](auto&& self, NodeId id) -> void {
      tin_[id] = clock++;
      for (NodeId c : tree_->node(id).children) self(self, c);
      tout_[id] = clock++;
    };
    dfs(dfs, tree_->root());

    const TreeIndex index = TreeIndex::Build(*tree_);
    full_size_.assign(index.sizes().begin(), index.sizes().end());
    placements_.assign(input_.universe_size(), {});
    remaining_.assign(input_.universe_size(), 0);
    for (ItemId i = 0; i < input_.universe_size(); ++i) {
      const std::span<const NodeId> placed = index.PlacementsOf(i);
      placements_[i].assign(placed.begin(), placed.end());
      const uint32_t bound = input_.ItemBound(i);
      remaining_[i] = bound - std::min<uint32_t>(bound, placed.size());
    }

    in_s_.assign(n_sets, false);
    counted_.resize(n_sets);
    inter_own_.assign(n_sets, 0);
    covered_.assign(n_sets, false);
    skipped_.assign(n_sets, false);
    for (SetId q : options_.target_sets) {
      in_s_[q] = true;
      const NodeId cat = options_.cat_of[q];
      if (cat == kInvalidNode) continue;
      for (ItemId item : input_.set(q).items) {
        for (NodeId p : placements_[item]) {
          if (InSubtree(p, cat)) {
            if (counted_[q].insert(item).second) ++inter_own_[q];
            break;
          }
        }
      }
      RefreshCovered(q);
    }

    // Inverted index over the *target* sets only.
    sets_of_item_.assign(input_.universe_size(), {});
    for (SetId q : options_.target_sets) {
      if (options_.cat_of[q] == kInvalidNode) continue;
      for (ItemId item : input_.set(q).items) {
        sets_of_item_[item].push_back(q);
      }
    }
  }

  bool InSubtree(NodeId node, NodeId ancestor_or_self) const {
    return tin_[ancestor_or_self] <= tin_[node] &&
           tout_[node] <= tout_[ancestor_or_self];
  }

  bool OnSameBranch(NodeId a, NodeId b) const {
    return InSubtree(a, b) || InSubtree(b, a);
  }

  /// Item may receive a new placement at `node` without violating its bound
  /// or the one-branch rule.
  bool CanPlace(ItemId item, NodeId node) const {
    if (remaining_[item] == 0) return false;
    for (NodeId p : placements_[item]) {
      if (OnSameBranch(p, node)) return false;
    }
    return true;
  }

  /// First node on the path from `node` to the root whose subtree already
  /// holds `item` (kInvalidNode when none): a new copy at `node` grows only
  /// the nodes below it, as a category is a set (Section 2.1).
  NodeId FirstHolder(ItemId item, NodeId node) const {
    if (placements_[item].empty()) return kInvalidNode;
    for (NodeId cur = node; cur != kInvalidNode;
         cur = tree_->node(cur).parent) {
      for (NodeId p : placements_[item]) {
        if (InSubtree(p, cur)) return cur;
      }
    }
    return kInvalidNode;
  }

  double EffectiveDelta(SetId q) const {
    const double o = input_.set(q).delta_override;
    return o >= 0.0 ? o : sim_.delta();
  }

  void RefreshCovered(SetId q) {
    const NodeId cat = options_.cat_of[q];
    covered_[q] = cat != kInvalidNode &&
                  sim_.CoversFromSizes(input_.set(q).items.size(),
                                       full_size_[cat], inter_own_[q],
                                       input_.set(q).delta_override);
  }

  size_t CoverGap(SetId q) const {
    const NodeId cat = options_.cat_of[q];
    if (cat == kInvalidNode) return kImpossibleGap;
    return CoverGapFromSizes(sim_, input_.set(q).items.size(),
                             full_size_[cat], inter_own_[q],
                             input_.set(q).delta_override);
  }

  /// Duplicates from q that can still be placed inside q's category subtree.
  std::vector<ItemId> RelevantDuplicates(SetId q) const {
    const NodeId cat = options_.cat_of[q];
    std::vector<ItemId> out;
    for (ItemId item : input_.set(q).items) {
      if (counted_[q].count(item)) continue;
      if (CanPlace(item, cat)) out.push_back(item);
    }
    return out;
  }

  /// Gain factor of q (weight / cover gap); 0 when covered or uncoverable.
  double GainFactor(SetId q) const {
    if (covered_[q] || skipped_[q]) return 0.0;
    const size_t gap = CoverGap(q);
    if (gap == kImpossibleGap || gap == 0) return 0.0;
    return input_.set(q).weight / static_cast<double>(gap);
  }

  /// Best placement for duplicate `item` inside the subtree of `cat`: the
  /// lowest relevant category on the branch maximizing the sum of gain
  /// factors of the uncovered sets containing the item (paper, Section
  /// 3.3). The reported gain is *net*: on-branch gain minus the gain
  /// factors of uncovered sets that need the item elsewhere (opportunity
  /// cost), so the top-k selection prefers items no other branch is
  /// waiting for.
  struct BranchChoice {
    NodeId target = kInvalidNode;
    double gain = 0.0;
  };
  BranchChoice ChooseBranch(ItemId item, NodeId cat) const {
    // Relevant nodes: categories inside subtree(cat) whose source set
    // contains the item and is still uncovered.
    std::unordered_map<NodeId, double> gain_at;
    double outside_gain = 0.0;
    for (SetId s : sets_of_item_[item]) {
      const NodeId c = options_.cat_of[s];
      if (c == kInvalidNode) continue;
      const double g = GainFactor(s);
      if (g <= 0.0) continue;
      if (InSubtree(c, cat)) {
        gain_at[c] += g;
      } else {
        outside_gain += g;
      }
    }
    BranchChoice choice;
    choice.target = cat;
    choice.gain = -outside_gain;
    if (gain_at.empty()) return choice;
    // Chain gain: relevant nodes on one branch form chains; the deepest node
    // of the best chain is the assignment target.
    std::unordered_map<NodeId, double> chain_gain;
    auto chain_of = [&](auto&& self, NodeId node) -> double {
      auto memo = chain_gain.find(node);
      if (memo != chain_gain.end()) return memo->second;
      double g = gain_at.at(node);
      NodeId cur = tree_->node(node).parent;
      while (cur != kInvalidNode && InSubtree(cur, cat)) {
        if (gain_at.count(cur)) {
          g += self(self, cur);
          break;
        }
        cur = tree_->node(cur).parent;
      }
      chain_gain[node] = g;
      return g;
    };
    double total_inside = 0.0;
    for (const auto& [node, g] : gain_at) {
      (void)node;
      total_inside += g;
    }
    double best = -1.0;
    size_t best_depth = 0;
    for (const auto& [node, g] : gain_at) {
      (void)g;
      const double chain = chain_of(chain_of, node);
      const size_t depth = tree_->Depth(node);
      if (chain > best + kEps || (chain > best - kEps && depth > best_depth)) {
        best = chain;
        best_depth = depth;
        choice.target = node;
        // Net gain: what this branch wins minus what every other placement
        // opportunity (other branches, other subtrees) loses.
        choice.gain = chain - (total_inside - chain) - outside_gain;
      }
    }
    return choice;
  }

  /// Commits one placement, maintaining all incremental state.
  void Place(ItemId item, NodeId target) {
    OCT_DCHECK(CanPlace(item, target));
    const NodeId holder = FirstHolder(item, target);
    tree_->AssignItem(target, item);
    placements_[item].push_back(target);
    --remaining_[item];
    ++stats_.duplicates_assigned;
    // Walk the chain up to the first node already holding the item (the
    // root, for a first copy): sizes grow by one there; sets whose category
    // is on it and contain the item gain intersection.
    for (NodeId cur = target; cur != holder; cur = tree_->node(cur).parent) {
      ++full_size_[cur];
      const SetId s = tree_->node(cur).source_set;
      if (s != kInvalidSet && s < in_s_.size() && in_s_[s] &&
          options_.cat_of[s] == cur) {
        if (input_.set(s).items.Contains(item)) {
          if (counted_[s].insert(item).second) ++inter_own_[s];
        }
        RefreshCovered(s);
      }
    }
  }

  /// Would committing `assignments` (item -> target) uncover covered sets of
  /// more aggregate weight than covering q̂ gains? (Protects existing covers;
  /// the paper never trades a covered set away for a lighter one.)
  bool WouldLoseMoreThanGain(
      SetId q_hat, const std::vector<std::pair<ItemId, NodeId>>& assignments) {
    // Per chain node: how many new items land in its subtree, and how many
    // of them belong to its source set.
    std::unordered_map<NodeId, size_t> added_total;
    std::unordered_map<NodeId, size_t> added_in_set;
    for (const auto& [item, target] : assignments) {
      const NodeId holder = FirstHolder(item, target);
      for (NodeId cur = target; cur != holder;
           cur = tree_->node(cur).parent) {
        ++added_total[cur];
        const SetId s = tree_->node(cur).source_set;
        if (s != kInvalidSet && in_s_[s] && options_.cat_of[s] == cur &&
            input_.set(s).items.Contains(item) && !counted_[s].count(item)) {
          ++added_in_set[cur];
        }
      }
    }
    double lost = 0.0;
    for (const auto& [node, total] : added_total) {
      const SetId s = tree_->node(node).source_set;
      if (s == kInvalidSet || !in_s_[s] || options_.cat_of[s] != node) continue;
      if (!covered_[s] || s == q_hat) continue;
      const size_t extra_inter =
          added_in_set.count(node) ? added_in_set.at(node) : 0;
      const bool still = sim_.CoversFromSizes(
          input_.set(s).items.size(), full_size_[node] + total,
          inter_own_[s] + extra_inter, input_.set(s).delta_override);
      if (!still) lost += input_.set(s).weight;
    }
    return lost >= input_.set(q_hat).weight;
  }

  void CoverLoop() {
    // Lazy max-heap over gain factors; stale entries revalidated on pop.
    using Entry = std::pair<double, SetId>;
    std::priority_queue<Entry> heap;
    for (SetId q : options_.target_sets) {
      const double g = GainFactor(q);
      if (g > 0.0) heap.push({g, q});
    }
    while (!heap.empty()) {
      auto [g, q_hat] = heap.top();
      heap.pop();
      const double fresh = GainFactor(q_hat);
      if (fresh <= 0.0) continue;
      if (fresh < g - kEps) {
        heap.push({fresh, q_hat});
        continue;
      }
      const size_t gap = CoverGap(q_hat);
      std::vector<ItemId> candidates = RelevantDuplicates(q_hat);
      if (gap == kImpossibleGap || gap == 0 || candidates.size() < gap) {
        continue;  // Cannot be covered (any more); drop.
      }
      const NodeId cat = options_.cat_of[q_hat];
      // Rank candidates by branch gain.
      std::vector<std::pair<double, std::pair<ItemId, NodeId>>> ranked;
      ranked.reserve(candidates.size());
      for (ItemId item : candidates) {
        const BranchChoice choice = ChooseBranch(item, cat);
        NodeId target = choice.target;
        if (!CanPlace(item, target)) target = cat;  // Fallback.
        if (!CanPlace(item, target)) continue;
        ranked.push_back({choice.gain, {item, target}});
      }
      if (ranked.size() < gap) continue;
      std::partial_sort(
          ranked.begin(), ranked.begin() + static_cast<long>(gap),
          ranked.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      std::vector<std::pair<ItemId, NodeId>> chosen;
      chosen.reserve(gap);
      for (size_t i = 0; i < gap; ++i) chosen.push_back(ranked[i].second);
      if (WouldLoseMoreThanGain(q_hat, chosen)) {
        skipped_[q_hat] = true;
        ++stats_.sets_skipped_to_protect_covers;
        continue;
      }
      for (const auto& [item, target] : chosen) Place(item, target);
      RefreshCovered(q_hat);
      if (covered_[q_hat]) ++stats_.sets_covered_by_duplicates;
      // Sets on the affected chains may have gained intersection — their
      // gain factors can only have improved; repush them.
      std::unordered_set<SetId> touched;
      for (const auto& [item, target] : chosen) {
        (void)item;
        NodeId cur = target;
        while (cur != kInvalidNode) {
          const SetId s = tree_->node(cur).source_set;
          if (s != kInvalidSet && in_s_[s] && options_.cat_of[s] == cur) {
            touched.insert(s);
          }
          cur = tree_->node(cur).parent;
        }
      }
      for (SetId s : touched) {
        const double ng = GainFactor(s);
        if (ng > 0.0) heap.push({ng, s});
      }
    }
  }

  /// Marginal gain (cutoff score) of adding `item` to the category of set s
  /// at `node`, accumulated over every source set on the chain up to the
  /// first node already holding the item (above it nothing changes).
  /// Returns -infinity when the placement would uncover a covered set.
  double MarginalGain(ItemId item, NodeId node) const {
    double delta_score = 0.0;
    const NodeId holder = FirstHolder(item, node);
    for (NodeId cur = node; cur != holder; cur = tree_->node(cur).parent) {
      const SetId s = tree_->node(cur).source_set;
      if (s != kInvalidSet && in_s_[s] && options_.cat_of[s] == cur) {
        const size_t q_size = input_.set(s).items.size();
        const bool in_set = input_.set(s).items.Contains(item) &&
                            !counted_[s].count(item);
        const size_t new_inter = inter_own_[s] + (in_set ? 1 : 0);
        const double before = cutoff_sim_.ScoreFromSizes(
            q_size, full_size_[cur], inter_own_[s],
            input_.set(s).delta_override);
        const double after = cutoff_sim_.ScoreFromSizes(
            q_size, full_size_[cur] + 1, new_inter,
            input_.set(s).delta_override);
        if (covered_[s] && after <= 0.0) {
          return -std::numeric_limits<double>::infinity();
        }
        delta_score += input_.set(s).weight * (after - before);
      }
    }
    return delta_score;
  }

  void AssignLeftovers() {
    // Iteratively: each pass assigns every remaining duplicate to its best
    // positive-gain category; stop when a pass makes no assignment.
    bool progress = true;
    while (progress) {
      progress = false;
      for (ItemId item = 0; item < input_.universe_size(); ++item) {
        if (remaining_[item] == 0 || sets_of_item_[item].empty()) continue;
        NodeId best_node = kInvalidNode;
        double best_gain = kEps;
        std::unordered_set<NodeId> seen;
        for (SetId s : sets_of_item_[item]) {
          const NodeId node = options_.cat_of[s];
          if (node == kInvalidNode || !seen.insert(node).second) continue;
          if (!CanPlace(item, node)) continue;
          const double gain = MarginalGain(item, node);
          if (gain > best_gain) {
            best_gain = gain;
            best_node = node;
          }
        }
        if (best_node != kInvalidNode) {
          Place(item, best_node);
          ++stats_.leftover_assigned;
          progress = true;
        }
      }
    }
  }

  const OctInput& input_;
  const Similarity sim_;
  const Similarity cutoff_sim_;
  const AssignItemsOptions& options_;
  CategoryTree* tree_;
  AssignItemsStats stats_;

  std::vector<size_t> tin_, tout_;
  std::vector<size_t> full_size_;
  std::vector<std::vector<NodeId>> placements_;
  std::vector<uint32_t> remaining_;
  std::vector<char> in_s_;
  std::vector<std::unordered_set<ItemId>> counted_;
  std::vector<size_t> inter_own_;
  std::vector<char> covered_;
  std::vector<char> skipped_;
  std::vector<std::vector<SetId>> sets_of_item_;
};

}  // namespace

AssignItemsStats AssignItems(const OctInput& input, const Similarity& sim,
                             const AssignItemsOptions& options,
                             CategoryTree* tree) {
  Assignment assignment(input, sim, options, tree);
  return assignment.Run();
}

}  // namespace oct
