// Tests for tree scoring — including exact reproduction of the scores of
// the two optimal trees T1 and T2 of Figure 2.

#include <gtest/gtest.h>

#include "core/scoring.h"
#include "paper_inputs.h"
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
  CategoryTree tree;
  const NodeId mid = tree.AddCategory(tree.root(), "mid");
  const NodeId cat_a = tree.AddCategory(mid, "a");
  const NodeId cat_b = tree.AddCategory(mid, "b");
  for (ItemId x : {0u, 1u}) tree.AssignItem(cat_a, x);
  for (ItemId x : {0u, 2u}) tree.AssignItem(cat_b, x);
  ASSERT_TRUE(tree.ValidateModel(input).ok());
  for (const Variant variant :
       {Variant::kJaccardCutoff, Variant::kJaccardThreshold}) {
    const TreeScore score = ScoreTree(input, tree, Similarity(variant, 0.5));
    for (SetId q = 0; q < input.num_sets(); ++q) {
      EXPECT_LE(score.per_set[q].score, 1.0)
          << VariantName(variant) << " q" << q + 1;
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
