// Tests for conflict enumeration: ranking, 2-conflicts via the item ->
// sets index, must-cover-together extraction, and 3-conflicts (Example 3.2).

#include <gtest/gtest.h>

#include "ctcr/conflicts.h"
#include "kernel/item_set_index.h"
#include "paper_inputs.h"
#include "util/thread_pool.h"

namespace oct {
namespace ctcr {
namespace {

using testing_inputs::Example32Input;
using testing_inputs::Figure2Input;

/// AnalyzeConflicts over a fresh index of `input`.
ConflictAnalysis Analyze(const OctInput& input, const Similarity& sim,
                         bool find_3conflicts, ThreadPool* pool = nullptr) {
  return AnalyzeConflicts(kernel::ItemSetIndex::Build(input), sim,
                          find_3conflicts, pool);
}

TEST(Ranking, SizeDescThenWeightAsc) {
  OctInput input(10);
  input.Add(ItemSet({0, 1, 2}), 5.0, "big-heavy");
  input.Add(ItemSet({3, 4, 5}), 1.0, "big-light");
  input.Add(ItemSet({6}), 9.0, "small");
  const auto analysis =
      Analyze(input, Similarity(Variant::kExact, 1.0), false);
  // Largest first; among equal sizes, lighter first.
  EXPECT_EQ(analysis.by_rank[0], 1u);  // big-light (weight 1).
  EXPECT_EQ(analysis.by_rank[1], 0u);  // big-heavy.
  EXPECT_EQ(analysis.by_rank[2], 2u);  // small.
  EXPECT_EQ(analysis.rank[1], 0u);
}

TEST(Conflicts2, Figure2ExactVariant) {
  // Exact: conflicts are exactly the properly-overlapping pairs:
  // (q1,q3), (q1,q4), (q3,q4).
  const OctInput input = Figure2Input();
  const auto analysis =
      Analyze(input, Similarity(Variant::kExact, 1.0), false);
  EXPECT_EQ(analysis.conflicts2.size(), 3u);
  EXPECT_TRUE(analysis.IsConflict2(0, 2));
  EXPECT_TRUE(analysis.IsConflict2(0, 3));
  EXPECT_TRUE(analysis.IsConflict2(2, 3));
  EXPECT_FALSE(analysis.IsConflict2(0, 1));  // q2 ⊂ q1.
  EXPECT_FALSE(analysis.IsConflict2(1, 2));  // Disjoint.
  // Containments are must-cover-together.
  EXPECT_TRUE(analysis.IsMustTogether(0, 1));
  EXPECT_TRUE(analysis.IsMustTogether(1, 3));
}

TEST(Conflicts2, Figure2PerfectRecall) {
  // delta = 0.8: conflicts (q1,q4) and (q3,q4); must-together (q1,q2),
  // (q1,q3), (q2,q4).
  const OctInput input = Figure2Input();
  const auto analysis = Analyze(
      input, Similarity(Variant::kPerfectRecall, 0.8), true);
  EXPECT_EQ(analysis.conflicts2.size(), 2u);
  EXPECT_TRUE(analysis.IsConflict2(0, 3));
  EXPECT_TRUE(analysis.IsConflict2(2, 3));
  EXPECT_TRUE(analysis.IsMustTogether(0, 1));
  EXPECT_TRUE(analysis.IsMustTogether(0, 2));
  EXPECT_TRUE(analysis.IsMustTogether(1, 3));
  // No 3-conflicts here: the only must-path q4-q2-q1 has middle q2... whose
  // third pair (q1,q4) is already a 2-conflict.
  EXPECT_TRUE(analysis.conflicts3.empty());
}

TEST(Conflicts3, Example32TripleDetected) {
  // Example 3.2 / Figure 5: {q1,q2} and {q2,q3} must be covered together,
  // {q1,q3} can be covered both ways -> {q1,q2,q3} is a 3-conflict.
  const OctInput input = Example32Input();
  const auto analysis = Analyze(
      input, Similarity(Variant::kPerfectRecall, 0.61), true);
  EXPECT_TRUE(analysis.conflicts2.empty());
  EXPECT_TRUE(analysis.IsMustTogether(0, 1));
  EXPECT_TRUE(analysis.IsMustTogether(1, 2));
  EXPECT_FALSE(analysis.IsMustTogether(0, 2));
  ASSERT_EQ(analysis.conflicts3.size(), 1u);
  EXPECT_EQ(analysis.conflicts3[0], (std::array<SetId, 3>{0, 1, 2}));
}

TEST(Conflicts3, SkippedWhenMiddleIsLowestRanking) {
  // q2 largest (rank 0) with two smaller disjoint must-together partners:
  // its category would be their common ancestor - no conflict.
  OctInput input(12);
  input.Add(ItemSet({0, 1, 2, 3, 4, 5, 6, 7}), 1.0, "q2-big");
  input.Add(ItemSet({0, 1}), 1.0, "q1");
  input.Add(ItemSet({6, 7}), 1.0, "q3");
  const auto analysis = Analyze(
      input, Similarity(Variant::kPerfectRecall, 0.8), true);
  EXPECT_TRUE(analysis.IsMustTogether(0, 1));
  EXPECT_TRUE(analysis.IsMustTogether(0, 2));
  EXPECT_TRUE(analysis.conflicts3.empty());
}

TEST(Conflicts, DisjointInputHasNoConflicts) {
  OctInput input(9);
  input.Add(ItemSet({0, 1, 2}), 1.0);
  input.Add(ItemSet({3, 4, 5}), 1.0);
  input.Add(ItemSet({6, 7, 8}), 1.0);
  for (Variant v : {Variant::kExact, Variant::kPerfectRecall,
                    Variant::kJaccardThreshold, Variant::kF1Cutoff}) {
    const double delta = v == Variant::kExact ? 1.0 : 0.7;
    const auto analysis =
        Analyze(input, Similarity(v, delta), true);
    EXPECT_TRUE(analysis.conflicts2.empty()) << VariantName(v);
    EXPECT_TRUE(analysis.conflicts3.empty()) << VariantName(v);
  }
}

TEST(Conflicts, SerialAndParallelAgree) {
  const OctInput input = Figure2Input();
  ThreadPool serial(1);
  ThreadPool parallel(4);
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  const auto a1 = Analyze(input, sim, true, &serial);
  const auto a2 = Analyze(input, sim, true, &parallel);
  EXPECT_EQ(a1.conflicts2, a2.conflicts2);
  EXPECT_EQ(a1.conflicts3, a2.conflicts3);
  EXPECT_EQ(a1.must_keys, a2.must_keys);
}

TEST(Conflicts, WeightedAverageConflictsMatchesHandCount) {
  // Figure 2, Exact: conflicts (q1,q3), (q1,q4), (q3,q4).
  // C2(q1)=2, C2(q2)=0, C2(q3)=2, C2(q4)=2; weights 2,1,1,1 -> total 5.
  // Weighted avg = (2*2 + 0 + 2 + 2) / 5 = 8/5.
  const OctInput input = Figure2Input();
  const auto analysis =
      Analyze(input, Similarity(Variant::kExact, 1.0), false);
  EXPECT_DOUBLE_EQ(WeightedAverageConflicts(input, analysis), 1.6);
}

TEST(Conflicts, PairsExaminedOnlyIntersecting) {
  const OctInput input = Figure2Input();
  const auto analysis =
      Analyze(input, Similarity(Variant::kExact, 1.0), false);
  // Intersecting pairs: (q1,q2),(q1,q3),(q1,q4),(q2,q4),(q3,q4) = 5.
  EXPECT_EQ(analysis.pairs_examined, 5u);
}

}  // namespace
}  // namespace ctcr
}  // namespace oct
