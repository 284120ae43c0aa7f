// Tests for CCT: global-context embeddings, agglomerative clustering
// (NN-chain UPGMA), dendrogram-to-tree conversion, and the end-to-end
// algorithm — including the Figure 7 setting (threshold Jaccard 0.6 over
// the Figure 2 input), where CCT covers the entire input.

#include <gtest/gtest.h>

#include <cmath>

#include "cct/agglomerative.h"
#include "cct/cct.h"
#include "cct/embedding.h"
#include "core/scoring.h"
#include "kernel/item_set_index.h"
#include "paper_inputs.h"
#include "util/rng.h"

namespace oct {
namespace cct {
namespace {

using testing_inputs::Figure2Input;

/// EmbedInputSets over a fresh index of `input`.
Embeddings Embed(const OctInput& input, const Similarity& sim) {
  return EmbedInputSets(kernel::ItemSetIndex::Build(input), sim);
}

TEST(Embedding, DiagonalIsOne) {
  const OctInput input = Figure2Input();
  const Embeddings emb =
      Embed(input, Similarity(Variant::kJaccardThreshold, 0.6));
  for (size_t q = 0; q < input.num_sets(); ++q) {
    const auto dense = emb.Dense(q, input.num_sets());
    EXPECT_FLOAT_EQ(dense[q], 1.0f);  // S(q, q) = 1.
  }
}

TEST(Embedding, JaccardEntriesMatchPairwiseSimilarities) {
  const OctInput input = Figure2Input();
  const Embeddings emb =
      Embed(input, Similarity(Variant::kJaccardThreshold, 0.6));
  const auto dense0 = emb.Dense(0, 4);
  // J(q1, q2) = 2/5; J(q1, q3) = 3/6; J(q1, q4) = 2/9.
  EXPECT_NEAR(dense0[1], 0.4f, 1e-6);
  EXPECT_NEAR(dense0[2], 0.5f, 1e-6);
  EXPECT_NEAR(dense0[3], 2.0f / 9.0f, 1e-6);
}

TEST(Embedding, PerfectRecallUsesMeanOfPrecisionAndRecall) {
  const OctInput input = Figure2Input();
  const Embeddings emb =
      Embed(input, Similarity(Variant::kPerfectRecall, 0.8));
  const auto dense1 = emb.Dense(1, 4);  // q2 = {a,b}.
  // r(q2, q1) = 2/2, p(q2, q1) = |q2∩q1|/|q1| = 2/5 -> 0.7.
  EXPECT_NEAR(dense1[0], 0.7f, 1e-6);
}

TEST(Embedding, DistanceMatchesDenseEuclidean) {
  const OctInput input = Figure2Input();
  const Embeddings emb =
      Embed(input, Similarity(Variant::kF1Cutoff, 0.6));
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < 4; ++b) {
      const auto da = emb.Dense(a, 4);
      const auto db = emb.Dense(b, 4);
      double sq = 0.0;
      for (size_t i = 0; i < 4; ++i) {
        sq += (da[i] - db[i]) * (da[i] - db[i]);
      }
      EXPECT_NEAR(emb.Distance(a, b), std::sqrt(sq), 1e-5);
    }
  }
}

TEST(Agglomerative, TwoObviousClusters) {
  // Points on a line: {0, 1} and {10, 11}: the top merge joins the pair of
  // clusters, with the singleton merges first.
  const std::vector<double> pts = {0.0, 1.0, 10.0, 11.0};
  const Dendrogram d = AgglomerativeCluster(
      4, [&](size_t a, size_t b) { return std::abs(pts[a] - pts[b]); });
  ASSERT_EQ(d.merges.size(), 3u);
  EXPECT_EQ(d.num_leaves, 4u);
  // The final merge is the cross-cluster one (distance ~10).
  EXPECT_GT(d.merges.back().distance, 5.0);
  EXPECT_LT(d.merges[0].distance, 2.0);
  EXPECT_LT(d.merges[1].distance, 2.0);
}

TEST(Agglomerative, SingleAndTwoLeafEdgeCases) {
  const Dendrogram d1 =
      AgglomerativeCluster(1, [](size_t, size_t) { return 0.0; });
  EXPECT_TRUE(d1.merges.empty());
  EXPECT_EQ(d1.RootId(), 0u);
  const Dendrogram d2 =
      AgglomerativeCluster(2, [](size_t, size_t) { return 1.0; });
  ASSERT_EQ(d2.merges.size(), 1u);
  EXPECT_EQ(d2.RootId(), 2u);
}

TEST(Agglomerative, AverageLinkageLanceWilliams) {
  // Three points: 0, 1, 5. First merge {0,1}; then UPGMA distance from
  // {0,1} to {5} is (5 + 4) / 2 = 4.5.
  const std::vector<double> pts = {0.0, 1.0, 5.0};
  const Dendrogram d = AgglomerativeCluster(
      3, [&](size_t a, size_t b) { return std::abs(pts[a] - pts[b]); });
  ASSERT_EQ(d.merges.size(), 2u);
  EXPECT_NEAR(d.merges.back().distance, 4.5, 1e-9);
}

TEST(Agglomerative, LinkageVariantsDiffer) {
  const std::vector<double> pts = {0.0, 1.0, 5.0};
  auto dist = [&](size_t a, size_t b) { return std::abs(pts[a] - pts[b]); };
  const Dendrogram single = AgglomerativeCluster(3, dist, Linkage::kSingle);
  const Dendrogram complete =
      AgglomerativeCluster(3, dist, Linkage::kComplete);
  EXPECT_NEAR(single.merges.back().distance, 4.0, 1e-9);
  EXPECT_NEAR(complete.merges.back().distance, 5.0, 1e-9);
}

TEST(Agglomerative, AllLeavesAppearExactlyOnce) {
  Rng rng(3);
  std::vector<double> pts(37);
  for (auto& p : pts) p = rng.NextDouble() * 100.0;
  const Dendrogram d = AgglomerativeCluster(
      pts.size(),
      [&](size_t a, size_t b) { return std::abs(pts[a] - pts[b]); });
  ASSERT_EQ(d.merges.size(), pts.size() - 1);
  std::vector<int> used(2 * pts.size() - 1, 0);
  for (const auto& m : d.merges) {
    ++used[m.left];
    ++used[m.right];
  }
  // Every node except the root is merged into a parent exactly once.
  for (size_t node = 0; node + 1 < used.size(); ++node) {
    EXPECT_EQ(used[node], 1) << "node " << node;
  }
  EXPECT_EQ(used.back(), 0);
}

TEST(TreeFromDendrogram, LeavesCarrySourceSets) {
  const OctInput input = Figure2Input();
  const Embeddings emb =
      Embed(input, Similarity(Variant::kJaccardThreshold, 0.6));
  const Dendrogram d = AgglomerativeCluster(
      4, [&](size_t a, size_t b) { return emb.Distance(a, b); });
  std::vector<NodeId> cat_of;
  const CategoryTree tree = TreeFromDendrogram(input, d, &cat_of);
  ASSERT_EQ(cat_of.size(), 4u);
  for (SetId q = 0; q < 4; ++q) {
    ASSERT_NE(cat_of[q], kInvalidNode);
    EXPECT_EQ(tree.node(cat_of[q]).source_set, q);
    EXPECT_TRUE(tree.IsLeaf(cat_of[q]));
  }
  EXPECT_TRUE(tree.ValidateStructure().ok());
}

TEST(Cct, Figure7CoversEntireInput) {
  // Figure 7: CCT with threshold Jaccard delta 0.6 over the Figure 2 input
  // produces an optimal tree covering Q entirely (score 5).
  const OctInput input = Figure2Input();
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  const CctResult result = BuildCategoryTree(input, sim);
  ASSERT_TRUE(result.tree.ValidateModel(input).ok())
      << result.tree.ValidateModel(input).ToString();
  const TreeScore score = ScoreTree(input, result.tree, sim);
  EXPECT_DOUBLE_EQ(score.total, 5.0);
  EXPECT_EQ(score.num_covered, 4u);
}

TEST(Cct, ValidAcrossVariants) {
  const OctInput input = Figure2Input();
  for (Variant v : {Variant::kExact, Variant::kPerfectRecall,
                    Variant::kJaccardCutoff, Variant::kF1Threshold}) {
    const double delta = v == Variant::kExact ? 1.0 : 0.7;
    const Similarity sim(v, delta);
    const CctResult result = BuildCategoryTree(input, sim);
    EXPECT_TRUE(result.tree.ValidateModel(input).ok()) << VariantName(v);
    const TreeScore score = ScoreTree(input, result.tree, sim);
    EXPECT_GE(score.total, 0.0);
    EXPECT_LE(score.total, input.TotalWeight() + 1e-9);
  }
}

TEST(Cct, DeterministicAcrossRuns) {
  const OctInput input = Figure2Input();
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  const CctResult r1 = BuildCategoryTree(input, sim);
  const CctResult r2 = BuildCategoryTree(input, sim);
  EXPECT_EQ(ScoreTree(input, r1.tree, sim).total,
            ScoreTree(input, r2.tree, sim).total);
}

}  // namespace
}  // namespace cct
}  // namespace oct
