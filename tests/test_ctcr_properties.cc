// Property-based tests for CTCR over random inputs: structural validity,
// score bounds, the Exact-variant tightness (score == optimal MIS weight)
// and optimality (score == the exhaustive-search optimum on tiny inputs),
// conflict-freeness of the selected sets, and item-bound support — swept
// across variants and thresholds with parameterized gtest.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/scoring.h"
#include "ctcr/ctcr.h"
#include "util/rng.h"

namespace oct {
namespace ctcr {
namespace {

OctInput RandomInput(size_t universe, size_t num_sets, uint64_t seed) {
  Rng rng(seed);
  OctInput input(universe);
  for (size_t s = 0; s < num_sets; ++s) {
    const size_t size = 2 + rng.NextBelow(universe / 4);
    std::vector<ItemId> items;
    // Mix of clustered and uniform items to create containments and
    // overlaps (like query refinements).
    const ItemId base = static_cast<ItemId>(rng.NextBelow(universe));
    for (size_t i = 0; i < size; ++i) {
      if (rng.NextBernoulli(0.7)) {
        items.push_back(static_cast<ItemId>(
            (base + rng.NextBelow(universe / 3)) % universe));
      } else {
        items.push_back(static_cast<ItemId>(rng.NextBelow(universe)));
      }
    }
    ItemSet set(std::move(items));
    if (set.empty()) continue;
    input.Add(std::move(set), 0.5 + rng.NextDouble() * 5.0,
              "q" + std::to_string(s));
  }
  return input;
}

using VariantDelta = std::tuple<Variant, double>;

class CtcrPropertyTest
    : public ::testing::TestWithParam<std::tuple<VariantDelta, uint64_t>> {};

TEST_P(CtcrPropertyTest, TreeValidAndScoreBounded) {
  const auto [vd, seed] = GetParam();
  const auto [variant, delta] = vd;
  const Similarity sim(variant, delta);
  const OctInput input = RandomInput(60, 18, seed);
  const CtcrResult result = BuildCategoryTree(input, sim);

  // Structural and model validity (Section 2.1).
  ASSERT_TRUE(result.tree.ValidateModel(input).ok())
      << result.tree.ValidateModel(input).ToString();

  // Score bounds: 0 <= score <= total weight.
  const TreeScore score = ScoreTree(input, result.tree, sim);
  EXPECT_GE(score.total, -1e-9);
  EXPECT_LE(score.total, input.TotalWeight() + 1e-9);
  EXPECT_GE(score.normalized, 0.0);
  EXPECT_LE(score.normalized, 1.0 + 1e-12);

  // The selected sets are conflict-free.
  for (size_t i = 0; i < result.independent_set.size(); ++i) {
    for (size_t j = i + 1; j < result.independent_set.size(); ++j) {
      EXPECT_FALSE(result.analysis.IsConflict2(result.independent_set[i],
                                               result.independent_set[j]));
    }
  }

  // For binary variants, the covered weight cannot exceed the IS weight
  // when the MIS was solved optimally (the IS weight upper-bounds any
  // tree's covered weight).
  if (IsBinaryVariant(variant) && result.mis_optimal) {
    EXPECT_LE(score.total, result.independent_set_weight + 1e-9);
  }

  // Every universe item is placed exactly once per branch; the misc
  // category guarantees full coverage of items that appear anywhere.
  std::vector<size_t> placements(input.universe_size(), 0);
  for (NodeId id = 0; id < result.tree.num_nodes(); ++id) {
    if (!result.tree.IsAlive(id)) continue;
    for (ItemId item : result.tree.node(id).direct_items) ++placements[item];
  }
  for (ItemId item = 0; item < input.universe_size(); ++item) {
    EXPECT_GE(placements[item], 1u) << "item " << item << " unplaced";
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSeeds, CtcrPropertyTest,
    ::testing::Combine(
        ::testing::Values(VariantDelta{Variant::kExact, 1.0},
                          VariantDelta{Variant::kPerfectRecall, 0.6},
                          VariantDelta{Variant::kPerfectRecall, 0.9},
                          VariantDelta{Variant::kJaccardThreshold, 0.6},
                          VariantDelta{Variant::kJaccardThreshold, 0.85},
                          VariantDelta{Variant::kJaccardCutoff, 0.7},
                          VariantDelta{Variant::kF1Threshold, 0.7},
                          VariantDelta{Variant::kF1Cutoff, 0.6}),
        ::testing::Values(1001, 1002, 1003)));

TEST(CtcrExactTightness, ScoreEqualsOptimalMisWeight) {
  // Theorem 3.1: for the Exact variant the constructed tree covers the
  // entire independent set, so score == MIS weight whenever the MIS stage
  // is optimal.
  for (uint64_t seed = 500; seed < 510; ++seed) {
    const OctInput input = RandomInput(40, 12, seed);
    const Similarity sim(Variant::kExact, 1.0);
    const CtcrResult result = BuildCategoryTree(input, sim);
    ASSERT_TRUE(result.mis_optimal) << "seed " << seed;
    const TreeScore score = ScoreTree(input, result.tree, sim);
    // Duplicate input sets can make two sets share one category, both
    // covered; score can only exceed IS weight if duplicates exist outside
    // S (covered for free). So: score >= IS weight always, == when the
    // input has no duplicate sets in conflict.
    EXPECT_GE(score.total, result.independent_set_weight - 1e-9)
        << "seed " << seed;
  }
}

/// Tiny bound-1 inputs for exhaustive search (at most 11 sets over at most
/// 15 items, weights 1-5): even seeds draw intervals, which nest or are
/// disjoint often; odd seeds draw random subsets.
OctInput TinyInput(uint64_t seed) {
  Rng rng(seed);
  const size_t universe = 6 + rng.NextBelow(10);
  const size_t num_sets = 3 + rng.NextBelow(9);
  OctInput input(universe);
  for (size_t s = 0; s < num_sets; ++s) {
    std::vector<ItemId> items;
    if (seed % 2 == 0) {
      const size_t lo = rng.NextBelow(universe);
      const size_t hi = lo + rng.NextBelow(universe - lo);
      for (size_t x = lo; x <= hi; ++x) items.push_back(static_cast<ItemId>(x));
    } else {
      for (ItemId x = 0; x < universe; ++x) {
        if (rng.NextBernoulli(0.3)) items.push_back(x);
      }
      if (items.empty()) {
        items.push_back(static_cast<ItemId>(rng.NextBelow(universe)));
      }
    }
    input.Add(ItemSet(std::move(items)),
              static_cast<double>(1 + rng.NextBelow(5)),
              "q" + std::to_string(s));
  }
  return input;
}

/// Weight of the heaviest laminar subfamily (every pair disjoint or nested),
/// by enumerating every subfamily. A tree's categories form a laminar
/// family, and a bound-1 tree can make every member of one a category, so
/// this is the Exact-variant optimum.
double HeaviestLaminarWeight(const OctInput& input) {
  const size_t n = input.num_sets();
  std::vector<uint32_t> laminar_with(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const ItemSet& a = input.set(static_cast<SetId>(i)).items;
      const ItemSet& b = input.set(static_cast<SetId>(j)).items;
      if (!a.Intersects(b) || a.IsSubsetOf(b) || b.IsSubsetOf(a)) {
        laminar_with[i] |= 1u << j;
      }
    }
  }
  double best = 0.0;
  for (uint32_t family = 0; family < (1u << n); ++family) {
    double weight = 0.0;
    bool laminar = true;
    for (size_t i = 0; i < n && laminar; ++i) {
      if ((family >> i & 1u) == 0) continue;
      laminar = (family & ~laminar_with[i]) == 0;
      weight += input.set(static_cast<SetId>(i)).weight;
    }
    if (laminar) best = std::max(best, weight);
  }
  return best;
}

TEST(CtcrExactOptimum, MatchesHeaviestLaminarSubfamily) {
  // Section 5.3: with an optimal MIS, CTCR is optimal for Exact. Checked
  // against exhaustive search rather than CTCR's own conflict analysis.
  const Similarity sim(Variant::kExact, 1.0);
  size_t with_conflicts = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const OctInput input = TinyInput(seed);
    const CtcrResult result = BuildCategoryTree(input, sim);
    ASSERT_TRUE(result.mis_optimal) << "seed " << seed;
    const double optimum = HeaviestLaminarWeight(input);
    EXPECT_EQ(ScoreTree(input, result.tree, sim).total, optimum)
        << "seed " << seed;
    if (optimum < input.TotalWeight()) ++with_conflicts;
  }
  // Most inputs must force a choice, or the search checks little.
  EXPECT_GT(with_conflicts, 200u);
}

TEST(CtcrPerfectRecall, CoveredSetsHaveFullRecall) {
  for (uint64_t seed = 600; seed < 605; ++seed) {
    const OctInput input = RandomInput(50, 14, seed);
    const Similarity sim(Variant::kPerfectRecall, 0.7);
    const CtcrResult result = BuildCategoryTree(input, sim);
    const TreeScore score = ScoreTree(input, result.tree, sim);
    const auto item_sets = result.tree.ComputeItemSets();
    for (SetId q = 0; q < input.num_sets(); ++q) {
      if (!score.per_set[q].covered) continue;
      const NodeId node = score.per_set[q].best_node;
      EXPECT_TRUE(input.set(q).items.IsSubsetOf(item_sets[node]))
          << "seed " << seed << " set " << q;
    }
  }
}

TEST(CtcrItemBounds, RelaxedBoundsNeverHurt) {
  // Allowing two branches per item relaxes the problem; the score with
  // bounds 2 must be >= the score with bounds 1 on the same input.
  for (uint64_t seed = 700; seed < 704; ++seed) {
    OctInput strict = RandomInput(40, 12, seed);
    OctInput relaxed = strict;
    relaxed.set_item_bounds(std::vector<uint32_t>(40, 2));
    const Similarity sim(Variant::kJaccardThreshold, 0.7);
    const CtcrResult rs = BuildCategoryTree(strict, sim);
    const CtcrResult rr = BuildCategoryTree(relaxed, sim);
    ASSERT_TRUE(rr.tree.ValidateModel(relaxed).ok());
    const double s_strict = ScoreTree(strict, rs.tree, sim).total;
    const double s_relaxed = ScoreTree(relaxed, rr.tree, sim).total;
    EXPECT_GE(s_relaxed, s_strict - 1e-9) << "seed " << seed;
  }
}

TEST(CtcrAblation, CondensingNeverLowersScore) {
  for (uint64_t seed = 800; seed < 804; ++seed) {
    const OctInput input = RandomInput(50, 15, seed);
    const Similarity sim(Variant::kJaccardThreshold, 0.7);
    CtcrOptions with, without;
    without.condense = false;
    const double s_with =
        ScoreTree(input, BuildCategoryTree(input, sim, with).tree, sim).total;
    const double s_without =
        ScoreTree(input, BuildCategoryTree(input, sim, without).tree, sim)
            .total;
    EXPECT_GE(s_with, s_without - 1e-9) << "seed " << seed;
  }
}

TEST(CtcrDeterminism, SameInputSameTree) {
  const OctInput input = RandomInput(45, 13, 42);
  const Similarity sim(Variant::kJaccardThreshold, 0.75);
  const CtcrResult r1 = BuildCategoryTree(input, sim);
  const CtcrResult r2 = BuildCategoryTree(input, sim);
  EXPECT_EQ(r1.independent_set, r2.independent_set);
  EXPECT_EQ(ScoreTree(input, r1.tree, sim).total,
            ScoreTree(input, r2.tree, sim).total);
  EXPECT_EQ(r1.tree.NumCategories(), r2.tree.NumCategories());
}

}  // namespace
}  // namespace ctcr
}  // namespace oct
