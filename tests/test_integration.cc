// Cross-module integration tests: full pipeline runs (dataset -> algorithm
// -> score), pinned trees of every pipeline that reads the item -> sets
// index, storage-format round-trips of algorithm outputs, compaction
// invariance, tree-diff sanity against the ET baseline, and CCT property
// sweeps over random inputs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "baselines/ic_q.h"
#include "cct/cct.h"
#include "core/scoring.h"
#include "core/serialization.h"
#include "core/tree_diff.h"
#include "ctcr/ctcr.h"
#include "ctcr/reemploy.h"
#include "data/datasets.h"
#include "eval/harness.h"
#include "store/nested_set.h"
#include "util/rng.h"

namespace oct {
namespace {

const data::Dataset& SmallDataset() {
  static const data::Dataset* ds = new data::Dataset(data::MakeDataset(
      'A', Similarity(Variant::kJaccardThreshold, 0.8), 0.05));
  return *ds;
}

TEST(Integration, PipelineEndToEndProducesValidScoredTree) {
  const data::Dataset& ds = SmallDataset();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const ctcr::CtcrResult run = ctcr::BuildCategoryTree(ds.input, sim);
  ASSERT_TRUE(run.tree.ValidateModel(ds.input).ok());
  const TreeScore score = ScoreTree(ds.input, run.tree, sim);
  EXPECT_GT(score.normalized, 0.5);  // Paper's floor for CTCR.
  // Every item of the catalog is somewhere in the tree.
  size_t placed = 0;
  for (NodeId id = 0; id < run.tree.num_nodes(); ++id) {
    if (run.tree.IsAlive(id)) placed += run.tree.node(id).direct_items.size();
  }
  EXPECT_EQ(placed, ds.catalog->num_items());
}

/// FNV-1a over the bytes of `text`.
uint64_t Fnv1a(const std::string& text) {
  uint64_t digest = 0xCBF29CE484222325ULL;
  for (unsigned char ch : text) {
    digest ^= ch;
    digest *= 0x100000001B3ULL;
  }
  return digest;
}

// Pinned trees, on datasets A-C at 8%, of every pipeline that asks which
// sets hold an item: CTCR under the three variants beside the Jaccard one
// that test_tree_ops pins, CCT under all four, and IC-Q on A and B (C takes
// about 0.5 s per IC-Q build). A change to how the item -> sets index is
// built or read must reproduce them byte for byte.
TEST(Integration, TreesMatchPinnedDigests) {
  enum class Pipeline { kCtcr, kCct, kIcQ };
  struct Pinned {
    Pipeline pipeline;
    Variant variant;
    double delta;
    char dataset;
    uint64_t digest;  // FNV-1a of SerializeTree.
  };
  using enum Pipeline;
  using enum Variant;
  const Pinned kPinned[] = {
      {kCtcr, kF1Threshold, 0.8, 'A', 0x9827445bd3db40a9ULL},
      {kCtcr, kF1Threshold, 0.8, 'B', 0x4c1d9929758d4dbdULL},
      {kCtcr, kF1Threshold, 0.8, 'C', 0x38afae98cd84cba7ULL},
      {kCtcr, kExact, 1.0, 'A', 0x7137ed83ca90e758ULL},
      {kCtcr, kExact, 1.0, 'B', 0xdd7c680e6ed7ae31ULL},
      {kCtcr, kExact, 1.0, 'C', 0xf0850da3be137742ULL},
      {kCtcr, kPerfectRecall, 0.9, 'A', 0xd5cab111d036ad62ULL},
      {kCtcr, kPerfectRecall, 0.9, 'B', 0xb783368d93a19a1bULL},
      {kCtcr, kPerfectRecall, 0.9, 'C', 0x5d7b2aa252500c06ULL},
      {kCct, kJaccardThreshold, 0.8, 'A', 0xd938716254167a23ULL},
      {kCct, kJaccardThreshold, 0.8, 'B', 0x6d90f2bc74791b8eULL},
      {kCct, kJaccardThreshold, 0.8, 'C', 0xe400f3500e13e2d2ULL},
      {kCct, kF1Threshold, 0.8, 'A', 0xe493cbc0b1fe47fdULL},
      {kCct, kF1Threshold, 0.8, 'B', 0x6e490ed027b83153ULL},
      {kCct, kF1Threshold, 0.8, 'C', 0x933b7a6255d24009ULL},
      {kCct, kExact, 1.0, 'A', 0x5731e40d6327e860ULL},
      {kCct, kExact, 1.0, 'B', 0x6fca1bf06c4f5011ULL},
      {kCct, kExact, 1.0, 'C', 0xc70e2958f1981d41ULL},
      {kCct, kPerfectRecall, 0.9, 'A', 0xbea9496a1bb56030ULL},
      {kCct, kPerfectRecall, 0.9, 'B', 0xb2159c590c9f3da4ULL},
      {kCct, kPerfectRecall, 0.9, 'C', 0xe4a1c604c9dd2ca2ULL},
      {kIcQ, kJaccardThreshold, 0.8, 'A', 0x1cca2429635f2294ULL},
      {kIcQ, kJaccardThreshold, 0.8, 'B', 0x68a3d2d8514f34e8ULL},
  };
  std::map<std::pair<Variant, char>, data::Dataset> datasets;
  for (const Pinned& pinned : kPinned) {
    const Similarity sim(pinned.variant, pinned.delta);
    const std::pair key(pinned.variant, pinned.dataset);
    if (!datasets.count(key)) {
      datasets.emplace(key, data::MakeDataset(pinned.dataset, sim, 0.08));
    }
    const OctInput& input = datasets.at(key).input;
    CategoryTree tree;
    switch (pinned.pipeline) {
      case kCtcr:
        tree = ctcr::BuildCategoryTree(input, sim).tree;
        break;
      case kCct:
        tree = cct::BuildCategoryTree(input, sim).tree;
        break;
      case kIcQ:
        tree = baselines::BuildIcQTree(input);
        break;
    }
    const uint64_t digest = Fnv1a(SerializeTree(tree));
    EXPECT_EQ(digest, pinned.digest)
        << static_cast<int>(pinned.pipeline) << " " << sim.ToString() << " "
        << pinned.dataset << std::hex << " 0x" << digest;
  }
}

TEST(Integration, SerializedTreeScoresIdentically) {
  const data::Dataset& ds = SmallDataset();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const ctcr::CtcrResult run = ctcr::BuildCategoryTree(ds.input, sim);
  // Through the version log's payload format and back.
  auto parsed = store::ParseNestedSet(
      store::SerializeNestedSet(store::EncodeNestedSet(run.tree)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto decoded = store::DecodeNestedSet(parsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(SerializeTree(*decoded), SerializeTree(run.tree));
  const double before = ScoreTree(ds.input, run.tree, sim).total;
  const double after = ScoreTree(ds.input, *decoded, sim).total;
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(Integration, SerializedInputReproducesTree) {
  const data::Dataset& ds = SmallDataset();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  auto parsed = ParseInput(SerializeInput(ds.input));
  ASSERT_TRUE(parsed.ok());
  const ctcr::CtcrResult a = ctcr::BuildCategoryTree(ds.input, sim);
  const ctcr::CtcrResult b = ctcr::BuildCategoryTree(*parsed, sim);
  EXPECT_EQ(a.independent_set, b.independent_set);
  EXPECT_DOUBLE_EQ(ScoreTree(ds.input, a.tree, sim).total,
                   ScoreTree(*parsed, b.tree, sim).total);
}

TEST(Integration, CompactionPreservesScore) {
  const data::Dataset& ds = SmallDataset();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  ctcr::CtcrResult run = ctcr::BuildCategoryTree(ds.input, sim);
  const double before = ScoreTree(ds.input, run.tree, sim).total;
  run.tree.Compact();
  ASSERT_TRUE(run.tree.ValidateModel(ds.input).ok());
  EXPECT_DOUBLE_EQ(ScoreTree(ds.input, run.tree, sim).total, before);
}

TEST(Integration, TreeDiffDetectsCtcrVsExistingGap) {
  // The query-driven tree differs substantially from the attribute-driven
  // existing tree, but is identical to itself.
  const data::Dataset& ds = SmallDataset();
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const ctcr::CtcrResult run = ctcr::BuildCategoryTree(ds.input, sim);
  const TreeDiff self = CompareTrees(run.tree, run.tree);
  EXPECT_DOUBLE_EQ(self.mean_category_overlap, 1.0);
  EXPECT_EQ(self.items_moved, 0u);
  const TreeDiff vs_existing = CompareTrees(ds.existing_tree, run.tree);
  EXPECT_LT(vs_existing.mean_category_overlap, 0.9);
}

TEST(Integration, ReemployOnDatasetImprovesCoverage) {
  const data::Dataset& ds = SmallDataset();
  const Similarity sim(Variant::kPerfectRecall, 0.9);
  ctcr::ReemployOptions options;
  options.max_rounds = 3;
  options.threshold_factor = 0.75;
  const ctcr::ReemployResult result =
      ctcr::ReemployWithReducedThresholds(ds.input, sim, options);
  ASSERT_GE(result.rounds, 1u);
  EXPECT_GE(result.covered_per_round.back(),
            result.covered_per_round.front());
  ASSERT_TRUE(result.final_run.tree.ValidateModel(ds.input).ok());
}

// CCT property sweep over random inputs (CTCR has its own in
// test_ctcr_properties.cc).
using VariantDelta = std::tuple<Variant, double>;

class CctPropertyTest
    : public ::testing::TestWithParam<std::tuple<VariantDelta, uint64_t>> {};

TEST_P(CctPropertyTest, TreeValidAndScoreBounded) {
  const auto [vd, seed] = GetParam();
  const auto [variant, delta] = vd;
  Rng rng(seed);
  OctInput input(50);
  for (size_t s = 0; s < 14; ++s) {
    std::vector<ItemId> items;
    const ItemId base = static_cast<ItemId>(rng.NextBelow(50));
    const size_t size = 2 + rng.NextBelow(12);
    for (size_t i = 0; i < size; ++i) {
      items.push_back(static_cast<ItemId>((base + rng.NextBelow(20)) % 50));
    }
    ItemSet set(std::move(items));
    if (set.empty()) continue;
    input.Add(std::move(set), 0.5 + rng.NextDouble() * 3.0);
  }
  const Similarity sim(variant, delta);
  const cct::CctResult result = cct::BuildCategoryTree(input, sim);
  ASSERT_TRUE(result.tree.ValidateModel(input).ok())
      << result.tree.ValidateModel(input).ToString();
  const TreeScore score = ScoreTree(input, result.tree, sim);
  EXPECT_GE(score.total, -1e-9);
  EXPECT_LE(score.total, input.TotalWeight() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSeeds, CctPropertyTest,
    ::testing::Combine(
        ::testing::Values(VariantDelta{Variant::kExact, 1.0},
                          VariantDelta{Variant::kPerfectRecall, 0.7},
                          VariantDelta{Variant::kJaccardThreshold, 0.7},
                          VariantDelta{Variant::kJaccardCutoff, 0.6},
                          VariantDelta{Variant::kF1Threshold, 0.8}),
        ::testing::Values(2001, 2002, 2003)));

}  // namespace
}  // namespace oct
