// Tests for tree scoring — including exact reproduction of the scores of
// the two optimal trees T1 and T2 of Figure 2, and a brute-force oracle over
// random trees whose items sit on up to three branches.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>

#include "core/scoring.h"
#include "core/tree_index.h"
#include "paper_inputs.h"
#include "random_trees.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace oct {
namespace {

using namespace testing_inputs;  // NOLINT

/// T1 of Figure 2 (optimal for Perfect-Recall, delta = 0.8):
/// root -> { C1 = {a..f} with children C3 = {a,b}, C4 = {c,d,e,f};
///           C2 = {g,h,i} }.
CategoryTree BuildT1() {
  CategoryTree tree;
  const NodeId c1 = tree.AddCategory(tree.root(), "C1");
  const NodeId c3 = tree.AddCategory(c1, "C3");
  const NodeId c4 = tree.AddCategory(c1, "C4");
  const NodeId c2 = tree.AddCategory(tree.root(), "C2");
  for (ItemId x : {a, b}) tree.AssignItem(c3, x);
  for (ItemId x : {c, d, e, f}) tree.AssignItem(c4, x);
  for (ItemId x : {g, h, i}) tree.AssignItem(c2, x);
  return tree;
}

/// T2 of Figure 2 (optimal for cutoff Jaccard, delta = 0.6):
/// root -> { C1 = {a..e} with children C3 = {a,b}, C4 = {c,d,e};
///           C2 = {f,g,h,i} }.
CategoryTree BuildT2() {
  CategoryTree tree;
  const NodeId c1 = tree.AddCategory(tree.root(), "C1");
  const NodeId c3 = tree.AddCategory(c1, "C3");
  const NodeId c4 = tree.AddCategory(c1, "C4");
  const NodeId c2 = tree.AddCategory(tree.root(), "C2");
  for (ItemId x : {a, b}) tree.AssignItem(c3, x);
  for (ItemId x : {c, d, e}) tree.AssignItem(c4, x);
  for (ItemId x : {f, g, h, i}) tree.AssignItem(c2, x);
  return tree;
}

TEST(ScoreTree, Figure2T1PerfectRecallScoreIsFour) {
  const OctInput input = Figure2Input();
  const CategoryTree t1 = BuildT1();
  ASSERT_TRUE(t1.ValidateModel(input).ok());
  const TreeScore score =
      ScoreTree(input, t1, Similarity(Variant::kPerfectRecall, 0.8));
  EXPECT_DOUBLE_EQ(score.total, 4.0);  // W(q1)+W(q2)+W(q3), per the paper.
  EXPECT_DOUBLE_EQ(score.normalized, 0.8);
  EXPECT_EQ(score.num_covered, 3u);
  EXPECT_TRUE(score.per_set[0].covered);
  EXPECT_TRUE(score.per_set[1].covered);
  EXPECT_TRUE(score.per_set[2].covered);
  EXPECT_FALSE(score.per_set[3].covered);  // q4 cannot reach recall 1.
}

TEST(ScoreTree, Figure2T2CutoffJaccardScore) {
  const OctInput input = Figure2Input();
  const CategoryTree t2 = BuildT2();
  ASSERT_TRUE(t2.ValidateModel(input).ok());
  const TreeScore score =
      ScoreTree(input, t2, Similarity(Variant::kJaccardCutoff, 0.6));
  // Paper: 2*1 + 1*1 + 1*(3/4) + 1*(2/3) = 4 + 5/12.
  EXPECT_NEAR(score.total, 4.0 + 5.0 / 12.0, 1e-12);
  EXPECT_EQ(score.num_covered, 4u);
  EXPECT_NEAR(score.per_set[2].score, 0.75, 1e-12);
  EXPECT_NEAR(score.per_set[3].score, 2.0 / 3.0, 1e-12);
}

TEST(ScoreTree, LowerThresholdLetsC1CoverQ2) {
  // Paper, Example 2.2: at delta 0.4, C1 also covers q2 (precision 0.4).
  const OctInput input = Figure2Input();
  const CategoryTree t2 = BuildT2();
  const TreeScore score =
      ScoreTree(input, t2, Similarity(Variant::kJaccardCutoff, 0.3));
  // q2's best is still its exact category C3 (score 1), but C1 reaches
  // J(q2, C1) = 2/5 = 0.4 >= 0.3; verify via a tree without C3.
  CategoryTree no_c3;
  const NodeId c1 = no_c3.AddCategory(no_c3.root(), "C1");
  for (ItemId x : {a, b, c, d, e}) no_c3.AssignItem(c1, x);
  const TreeScore s2 =
      ScoreTree(input, no_c3, Similarity(Variant::kJaccardCutoff, 0.3));
  EXPECT_NEAR(s2.per_set[1].score, 0.4, 1e-12);
  EXPECT_GT(score.per_set[1].score, s2.per_set[1].score);
}

TEST(ScoreTree, EmptyTreeScoresZero) {
  const OctInput input = Figure2Input();
  CategoryTree tree;  // Root only, no items.
  const TreeScore score =
      ScoreTree(input, tree, Similarity(Variant::kJaccardCutoff, 0.5));
  EXPECT_DOUBLE_EQ(score.total, 0.0);
  EXPECT_EQ(score.num_covered, 0u);
}

TEST(ScoreTree, RootCanCoverWhenEverythingMatches) {
  OctInput input(3);
  input.Add(ItemSet({0, 1, 2}), 1.0);
  CategoryTree tree;
  for (ItemId x : {0u, 1u, 2u}) tree.AssignItem(tree.root(), x);
  const TreeScore score =
      ScoreTree(input, tree, Similarity(Variant::kExact, 1.0));
  EXPECT_DOUBLE_EQ(score.total, 1.0);
  EXPECT_EQ(score.per_set[0].best_node, tree.root());
}

TEST(ScoreTree, SerialAndParallelAgree) {
  const OctInput input = Figure2Input();
  const CategoryTree t2 = BuildT2();
  const Similarity sim(Variant::kF1Cutoff, 0.5);
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const TreeScore s1 = ScoreTree(input, t2, sim, &serial);
  const TreeScore s2 = ScoreTree(input, t2, sim, &parallel);
  EXPECT_DOUBLE_EQ(s1.total, s2.total);
  for (SetId q = 0; q < input.num_sets(); ++q) {
    EXPECT_EQ(s1.per_set[q].best_node, s2.per_set[q].best_node);
  }
}

TEST(ScoreTree, PerSetDeltaOverrideHonored) {
  OctInput input(4);
  CandidateSet cs;
  cs.items = ItemSet({0, 1, 2, 3});
  cs.weight = 1.0;
  cs.delta_override = 0.4;
  input.Add(cs);
  CategoryTree tree;
  const NodeId n = tree.AddCategory(tree.root(), "n");
  tree.AssignItem(n, 0);
  tree.AssignItem(n, 1);
  // J = 2/4 = 0.5: covered under the per-set 0.4 despite the global 0.9.
  const TreeScore score =
      ScoreTree(input, tree, Similarity(Variant::kJaccardThreshold, 0.9));
  EXPECT_DOUBLE_EQ(score.total, 1.0);
}

TEST(ScoreTree, ItemOnTwoBranchesCountsOnceAtTheirAncestor) {
  // root -> mid -> {a, b}; item 0 (bound 2) sits in both a and b, item 1 in
  // a, item 2 in b. mid holds 3 items and shares all of them with q1.
  OctInput input(3);
  input.Add(ItemSet({0, 1, 2}), 1.0, "q1");
  input.Add(ItemSet({0}), 1.0, "q2");
  input.set_item_bounds({2, 1, 1});
  NodeId mid;
  const CategoryTree tree = testing_trees::SharedItemTree(&mid);
  ASSERT_TRUE(tree.ValidateModel(input).ok());
  for (const Variant variant :
       {Variant::kJaccardCutoff, Variant::kJaccardThreshold}) {
    const TreeScore score = ScoreTree(input, tree, Similarity(variant, 0.5));
    EXPECT_EQ(score.per_set[0].best_node, mid) << VariantName(variant);
    EXPECT_EQ(score.per_set[0].score, 1.0) << VariantName(variant);
    EXPECT_EQ(score.per_set[0].raw, 1.0) << VariantName(variant);
    for (SetId q = 0; q < input.num_sets(); ++q) {
      EXPECT_LE(score.per_set[q].score, 1.0)
          << VariantName(variant) << " q" << q + 1;
    }
  }
}

/// S(q, C) and the keys ScoreTree breaks score ties with before depth and
/// id, read off C's materialized item set.
struct CoverKeys {
  double score = 0.0;
  double precision = 0.0;
  double raw = 0.0;
  bool operator<(const CoverKeys& o) const {
    return std::tie(score, precision, raw) <
           std::tie(o.score, o.precision, o.raw);
  }
};

/// nullopt when C shares no item with q (ScoreTree never considers it).
std::optional<CoverKeys> KeysAt(const CandidateSet& q, const ItemSet& c,
                                const Similarity& sim) {
  const size_t inter = q.items.IntersectionSize(c);
  if (inter == 0) return std::nullopt;
  return CoverKeys{sim.Score(q.items, c, q.delta_override),
                   PrecisionFromSizes(c.size(), inter),
                   sim.RawFromSizes(q.items.size(), c.size(), inter)};
}

/// Sets over `tree`'s universe: categories' in-universe items (so some
/// sets are covered), perturbed copies of them, and random subsets; a few
/// carry their own threshold.
OctInput SetsOver(const testing_trees::RandomTree& tree,
                  const std::vector<ItemSet>& full, Rng* rng) {
  OctInput input(tree.universe);
  input.set_item_bounds(std::vector<uint32_t>(
      tree.bounds.begin(), tree.bounds.begin() + tree.universe));
  for (int k = 0; k < 16; ++k) {
    std::vector<ItemId> items;
    if (k % 2 == 0) {
      const ItemSet& c = full[rng->NextBelow(full.size())];
      for (ItemId x : c) {
        if (x < tree.universe && !rng->NextBernoulli(0.1 * (k % 4))) {
          items.push_back(x);
        }
      }
      if (k % 4 == 2) {
        items.push_back(static_cast<ItemId>(rng->NextBelow(tree.universe)));
      }
    } else {
      const size_t size = 1 + rng->NextBelow(8);
      for (size_t i = 0; i < size; ++i) {
        items.push_back(static_cast<ItemId>(rng->NextBelow(tree.universe)));
      }
    }
    if (items.empty()) continue;
    CandidateSet set;
    set.items = ItemSet(std::move(items));
    set.weight = 1.0 + static_cast<double>(k % 3);
    if (k % 5 == 0) set.delta_override = 0.3 + 0.7 * rng->NextDouble();
    input.Add(std::move(set));
  }
  return input;
}

TEST(ScoreTree, MatchesBruteForceOnRandomTreesWithBoundsOneToThree) {
  const Similarity sims[] = {
      Similarity(Variant::kJaccardCutoff, 0.5),
      Similarity(Variant::kJaccardThreshold, 0.6),
      Similarity(Variant::kF1Cutoff, 0.5),
      Similarity(Variant::kF1Threshold, 0.7),
      Similarity(Variant::kPerfectRecall, 0.5),
      Similarity(Variant::kExact, 1.0),
  };
  for (uint32_t max_bound = 1; max_bound <= 3; ++max_bound) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE("max bound " + std::to_string(max_bound) + ", seed " +
                   std::to_string(seed));
      const testing_trees::RandomTree rt =
          testing_trees::MakeRandomTree(100 * seed + max_bound, max_bound);
      const CategoryTree& tree = rt.tree;
      OctInput every_item(rt.bounds.size());
      every_item.set_item_bounds(rt.bounds);
      ASSERT_TRUE(tree.ValidateModel(every_item).ok());

      // Sizes: the index counts every item once, like ItemSetOf.
      const TreeIndex index = TreeIndex::Build(tree);
      std::vector<ItemSet> full(tree.num_nodes());
      for (NodeId v = 0; v < tree.num_nodes(); ++v) {
        if (tree.IsAlive(v)) full[v] = tree.ItemSetOf(v);
        EXPECT_EQ(index.size(v), full[v].size()) << "node " << v;
      }

      Rng rng(seed);
      const OctInput input = SetsOver(rt, full, &rng);
      for (const Similarity& sim : sims) {
        const TreeScore score = ScoreTree(input, tree, sim);
        for (SetId q = 0; q < input.num_sets(); ++q) {
          std::optional<CoverKeys> best;
          for (NodeId v = 0; v < tree.num_nodes(); ++v) {
            if (!tree.IsAlive(v)) continue;
            const auto keys = KeysAt(input.set(q), full[v], sim);
            if (keys && (!best || *best < *keys)) best = keys;
          }
          const SetCover& got = score.per_set[q];
          const std::string where = sim.ToString() + " q" + std::to_string(q);
          if (!best) {
            EXPECT_EQ(got.best_node, kInvalidNode) << where;
            EXPECT_EQ(got.score, 0.0) << where;
            EXPECT_FALSE(got.covered) << where;
            continue;
          }
          EXPECT_EQ(got.score, best->score) << where;
          EXPECT_EQ(got.raw, best->raw) << where;
          EXPECT_EQ(got.covered, best->score > 0.0) << where;
          ASSERT_NE(got.best_node, kInvalidNode) << where;
          const auto at = KeysAt(input.set(q), full[got.best_node], sim);
          ASSERT_TRUE(at.has_value()) << where;
          EXPECT_EQ(at->score, best->score) << where;
        }
      }
    }
  }
}

TEST(AnnotateCoveredSets, MarksBestCovers) {
  const OctInput input = Figure2Input();
  CategoryTree t1 = BuildT1();
  AnnotateCoveredSets(input, Similarity(Variant::kPerfectRecall, 0.8), &t1);
  // C1 (node 1) covers q1; C3 covers q2; C4 covers q3.
  EXPECT_EQ(t1.node(1).covered_sets, (std::vector<SetId>{0}));
  EXPECT_EQ(t1.node(2).covered_sets, (std::vector<SetId>{1}));
  EXPECT_EQ(t1.node(3).covered_sets, (std::vector<SetId>{2}));
  EXPECT_TRUE(t1.node(4).covered_sets.empty());
}

TEST(AnnotateCoveredSets, TieBrokenTowardHigherPrecision) {
  OctInput input(6);
  input.Add(ItemSet({0, 1, 2}), 1.0);
  CategoryTree tree;
  // Two covering categories; the smaller one has higher precision.
  const NodeId big = tree.AddCategory(tree.root(), "big");
  const NodeId small = tree.AddCategory(tree.root(), "small");
  for (ItemId x : {0u, 1u}) tree.AssignItem(small, x);
  for (ItemId x : {2u, 3u, 4u}) tree.AssignItem(big, x);
  // Threshold 0.3: small J = 2/4, big J = 1/5 (not covering); adjust so
  // both cover: use F1.
  AnnotateCoveredSets(input, Similarity(Variant::kF1Threshold, 0.4), &tree);
  // small: F1 = 2*2/(3+2) = 0.8; big: F1 = 2*1/(3+3) = 1/3 -> only small.
  EXPECT_EQ(tree.node(small).covered_sets.size(), 1u);
  EXPECT_TRUE(tree.node(big).covered_sets.empty());
}

}  // namespace
}  // namespace oct
