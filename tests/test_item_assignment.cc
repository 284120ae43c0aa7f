// Tests for Algorithm 2: cover-gap closed forms, the greedy covering loop,
// duplicate partitioning, item bounds, and the marginal-gain leftovers.

#include <gtest/gtest.h>

#include <limits>

#include "core/item_assignment.h"
#include "core/scoring.h"

namespace oct {
namespace {

TEST(CoverGap, JaccardNeedsEnoughSharedItems) {
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  // |q|=5, |C|=2 (all shared): t >= 0.6*(5+2-2) - 2 = 1.
  EXPECT_EQ(CoverGapFromSizes(sim, 5, 2, 2), 1u);
  // Already covering: gap 0.
  EXPECT_EQ(CoverGapFromSizes(sim, 5, 4, 4), 0u);
  // Foreign items inflate the union: |C|=4 with inter 2 ->
  // t >= 0.6*7 - 2 = 2.2 -> 3, and only 3 items of q remain: feasible.
  EXPECT_EQ(CoverGapFromSizes(sim, 5, 4, 2), 3u);
  // Infeasible: too many foreign items.
  EXPECT_EQ(CoverGapFromSizes(sim, 3, 10, 1),
            std::numeric_limits<size_t>::max());
}

TEST(CoverGap, JaccardGapIsMinimal) {
  const Similarity sim(Variant::kJaccardCutoff, 0.6);
  const size_t gap = CoverGapFromSizes(sim, 5, 2, 2);
  ASSERT_EQ(gap, 1u);
  // With gap items: covered; with gap-1: not.
  EXPECT_GE(JaccardFromSizes(5, 2 + gap, 2 + gap), 0.6);
  EXPECT_LT(JaccardFromSizes(5, 2, 2), 0.6);
}

TEST(CoverGap, F1Formula) {
  const Similarity sim(Variant::kF1Threshold, 0.5);
  // Empty category: t >= (0.5*4)/(1.5) = 1.33 -> 2.
  EXPECT_EQ(CoverGapFromSizes(sim, 4, 0, 0), 2u);
  EXPECT_GE(F1FromSizes(4, 2, 2), 0.5);
  EXPECT_LT(F1FromSizes(4, 1, 1), 0.5);
}

TEST(CoverGap, PerfectRecallRequiresAllMissingItems) {
  const Similarity pr8(Variant::kPerfectRecall, 0.8);
  // |q|=4, |C|=2 with 1 shared: t = 3; precision = 4/5 = 0.8 -> feasible.
  EXPECT_EQ(CoverGapFromSizes(pr8, 4, 2, 1), 3u);
  const Similarity pr9(Variant::kPerfectRecall, 0.9);
  EXPECT_EQ(CoverGapFromSizes(pr9, 4, 2, 1),
            std::numeric_limits<size_t>::max());
}

TEST(CoverGap, ExactNeedsCleanCategory) {
  const Similarity sim(Variant::kExact, 1.0);
  EXPECT_EQ(CoverGapFromSizes(sim, 4, 2, 2), 2u);
  EXPECT_EQ(CoverGapFromSizes(sim, 4, 3, 2),
            std::numeric_limits<size_t>::max());  // Foreign item present.
}

TEST(CoverGap, PerSetDeltaOverride) {
  const Similarity sim(Variant::kJaccardThreshold, 0.9);
  EXPECT_EQ(CoverGapFromSizes(sim, 5, 2, 2, /*delta_override=*/0.6), 1u);
  EXPECT_EQ(CoverGapFromSizes(sim, 5, 2, 2), 3u);  // 0.9*5 - 2 = 2.5 -> 3.
}

/// Two intersecting sets on separate branches; Algorithm 2 must partition
/// the shared item and cover both.
TEST(AssignItems, CoversBothSetsByPartitioningDuplicates) {
  OctInput input(6);
  const SetId q1 = input.Add(ItemSet({0, 1, 2}), 2.0, "q1");
  const SetId q2 = input.Add(ItemSet({2, 3, 4}), 1.0, "q2");
  CategoryTree tree;
  std::vector<NodeId> cat_of(2);
  cat_of[q1] = tree.AddCategory(tree.root(), "C1", q1);
  cat_of[q2] = tree.AddCategory(tree.root(), "C2", q2);

  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  AssignItemsOptions options;
  options.target_sets = {q1, q2};
  options.cat_of = cat_of;
  AssignItems(input, sim, options, &tree);

  ASSERT_TRUE(tree.ValidateModel(input).ok());
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_EQ(score.num_covered, 2u);
  EXPECT_DOUBLE_EQ(score.total, 3.0);
}

TEST(AssignItems, LeftoverStageCompletesCoveredSets) {
  // One set alone: the cover loop places ceil(0.6*3)=2 items; the
  // marginal-gain stage should add the third (raw Jaccard rises to 1).
  OctInput input(3);
  const SetId q = input.Add(ItemSet({0, 1, 2}), 1.0, "q");
  CategoryTree tree;
  std::vector<NodeId> cat_of = {tree.AddCategory(tree.root(), "C", q)};
  const Similarity sim(Variant::kJaccardCutoff, 0.6);
  AssignItemsOptions options;
  options.target_sets = {q};
  options.cat_of = cat_of;
  AssignItems(input, sim, options, &tree);
  EXPECT_EQ(tree.ItemSetOf(cat_of[0]).size(), 3u);
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_DOUBLE_EQ(score.total, 1.0);
}

TEST(AssignItems, ThresholdVariantDoesNotUncoverForPolish) {
  // With a binary variant the leftover stage must never trade coverage; the
  // cutoff-counterpart gain controls polish only.
  OctInput input(8);
  const SetId q1 = input.Add(ItemSet({0, 1, 2, 3}), 1.0, "q1");
  const SetId q2 = input.Add(ItemSet({3, 4, 5, 6}), 1.0, "q2");
  CategoryTree tree;
  std::vector<NodeId> cat_of(2);
  cat_of[q1] = tree.AddCategory(tree.root(), "C1", q1);
  cat_of[q2] = tree.AddCategory(tree.root(), "C2", q2);
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  AssignItemsOptions options;
  options.target_sets = {q1, q2};
  options.cat_of = cat_of;
  AssignItems(input, sim, options, &tree);
  ASSERT_TRUE(tree.ValidateModel(input).ok());
  const TreeScore score = ScoreTree(input, tree, sim);
  // 0.7*4 = 2.8 -> 3 items each; the shared item 3 can serve only one side,
  // but each set has 3 private items, so both reach J >= 3/4 >= 0.7.
  EXPECT_EQ(score.num_covered, 2u);
}

TEST(AssignItems, HonorsItemBoundsAboveOne) {
  OctInput input(5);
  const SetId q1 = input.Add(ItemSet({0, 1}), 1.0, "q1");
  const SetId q2 = input.Add(ItemSet({0, 2}), 1.0, "q2");
  std::vector<uint32_t> bounds(5, 1);
  bounds[0] = 2;  // Item 0 may live on two branches.
  input.set_item_bounds(bounds);
  CategoryTree tree;
  std::vector<NodeId> cat_of(2);
  cat_of[q1] = tree.AddCategory(tree.root(), "C1", q1);
  cat_of[q2] = tree.AddCategory(tree.root(), "C2", q2);
  const Similarity sim(Variant::kJaccardThreshold, 1.0);
  AssignItemsOptions options;
  options.target_sets = {q1, q2};
  options.cat_of = cat_of;
  AssignItems(input, sim, options, &tree);
  ASSERT_TRUE(tree.ValidateModel(input).ok());
  // Exact-equality coverage of both sets requires item 0 in both.
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_EQ(score.num_covered, 2u);
  EXPECT_TRUE(tree.node(cat_of[q1]).direct_items.Contains(0));
  EXPECT_TRUE(tree.node(cat_of[q2]).direct_items.Contains(0));
}

TEST(AssignItems, SecondCopyCountsOnceAtCommonAncestors) {
  // root -> P -> {A, B}, the categories of q_p, q_a and q_b. Item a is in
  // A, b in B; x (bound 2) is wanted by all three sets. A copy of x in A and
  // one in B leave P = {x, a, b} = q_p, so P stays covered and all three
  // sets are: the second copy must not grow P a second time.
  const ItemId x = 0, a = 1, b = 2;
  OctInput input(3);
  const SetId q_p = input.Add(ItemSet({x, a, b}), 5.0, "q_p");
  const SetId q_a = input.Add(ItemSet({x, a}), 1.0, "q_a");
  const SetId q_b = input.Add(ItemSet({x, b}), 1.0, "q_b");
  input.set_item_bounds({2, 1, 1});
  CategoryTree tree;
  std::vector<NodeId> cat_of(3);
  cat_of[q_p] = tree.AddCategory(tree.root(), "P", q_p);
  cat_of[q_a] = tree.AddCategory(cat_of[q_p], "A", q_a);
  cat_of[q_b] = tree.AddCategory(cat_of[q_p], "B", q_b);
  tree.AssignItem(cat_of[q_a], a);
  tree.AssignItem(cat_of[q_b], b);
  const Similarity sim(Variant::kJaccardThreshold, 1.0);
  AssignItemsOptions options;
  options.target_sets = {q_p, q_a, q_b};
  options.cat_of = cat_of;
  const AssignItemsStats stats = AssignItems(input, sim, options, &tree);
  ASSERT_TRUE(tree.ValidateModel(input).ok());
  EXPECT_EQ(stats.sets_skipped_to_protect_covers, 0u);
  EXPECT_TRUE(tree.node(cat_of[q_a]).direct_items.Contains(x));
  EXPECT_TRUE(tree.node(cat_of[q_b]).direct_items.Contains(x));
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_EQ(score.num_covered, 3u);
  EXPECT_DOUBLE_EQ(score.total, 7.0);
}

TEST(AssignItems, PrefersHeavierGainFactor) {
  // Item 1 is needed by both sets (Exact coverage); the heavier set wins it
  // and the lighter set stays uncovered.
  OctInput input(4);
  const SetId heavy = input.Add(ItemSet({0, 1}), 10.0, "heavy");
  const SetId light = input.Add(ItemSet({1, 2}), 1.0, "light");
  CategoryTree tree;
  std::vector<NodeId> cat_of(2);
  cat_of[heavy] = tree.AddCategory(tree.root(), "H", heavy);
  cat_of[light] = tree.AddCategory(tree.root(), "L", light);
  const Similarity sim(Variant::kJaccardThreshold, 1.0);
  AssignItemsOptions options;
  options.target_sets = {heavy, light};
  options.cat_of = cat_of;
  AssignItems(input, sim, options, &tree);
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_TRUE(score.per_set[heavy].covered);
  EXPECT_FALSE(score.per_set[light].covered);
}

TEST(AssignItems, DeepBranchPlacementCountsForAncestors) {
  // C(q2) is a child of C(q1); items placed in the child must count toward
  // covering the parent's set.
  OctInput input(4);
  const SetId q1 = input.Add(ItemSet({0, 1, 2}), 1.0, "q1");
  const SetId q2 = input.Add(ItemSet({0, 1}), 1.0, "q2");
  CategoryTree tree;
  std::vector<NodeId> cat_of(2);
  cat_of[q1] = tree.AddCategory(tree.root(), "C1", q1);
  cat_of[q2] = tree.AddCategory(cat_of[q1], "C2", q2);
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  AssignItemsOptions options;
  options.target_sets = {q1, q2};
  options.cat_of = cat_of;
  AssignItems(input, sim, options, &tree);
  ASSERT_TRUE(tree.ValidateModel(input).ok());
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_EQ(score.num_covered, 2u);
  // No item may be direct in both C1 and C2 (same branch).
}

}  // namespace
}  // namespace oct
