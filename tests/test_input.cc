// Tests for OctInput: validation, weights, bounds, inverted index.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/input.h"
#include "kernel/item_set_index.h"
#include "paper_inputs.h"

namespace oct {
namespace {

TEST(OctInput, AddAndAccess) {
  OctInput input(10);
  const SetId id = input.Add(ItemSet({1, 2}), 3.5, "label");
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(input.num_sets(), 1u);
  EXPECT_EQ(input.set(0).weight, 3.5);
  EXPECT_EQ(input.set(0).label, "label");
}

TEST(OctInput, TotalWeight) {
  const OctInput input = testing_inputs::Figure2Input();
  EXPECT_DOUBLE_EQ(input.TotalWeight(), 5.0);  // Paper: "overall weight ... is 5".
}

TEST(OctInput, ValidateAcceptsGoodInput) {
  EXPECT_TRUE(testing_inputs::Figure2Input().Validate().ok());
}

TEST(OctInput, ValidateRejectsEmptySet) {
  OctInput input(5);
  input.Add(ItemSet(), 1.0);
  EXPECT_FALSE(input.Validate().ok());
}

TEST(OctInput, ValidateRejectsNegativeWeight) {
  OctInput input(5);
  input.Add(ItemSet({1}), -1.0);
  EXPECT_FALSE(input.Validate().ok());
}

TEST(OctInput, ValidateRejectsNonFiniteWeight) {
  for (const double weight : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    OctInput input(5);
    input.Add(ItemSet({1}), weight);
    EXPECT_FALSE(input.Validate().ok()) << weight;
  }
}

TEST(OctInput, ValidateRejectsOutOfUniverseItem) {
  OctInput input(3);
  input.Add(ItemSet({5}), 1.0);
  EXPECT_FALSE(input.Validate().ok());
}

TEST(OctInput, ValidateRejectsBadThresholdOverride) {
  OctInput input(5);
  CandidateSet cs;
  cs.items = ItemSet({1});
  cs.delta_override = 1.5;
  input.Add(cs);
  EXPECT_FALSE(input.Validate().ok());
}

TEST(OctInput, ValidateRejectsWrongBoundsSize) {
  OctInput input(5);
  input.Add(ItemSet({1}), 1.0);
  input.set_item_bounds({1, 1});  // Should be 5 entries.
  EXPECT_FALSE(input.Validate().ok());
}

TEST(OctInput, ValidateRejectsZeroBound) {
  OctInput input(2);
  input.Add(ItemSet({0}), 1.0);
  input.set_item_bounds({0, 1});
  EXPECT_FALSE(input.Validate().ok());
}

TEST(OctInput, ItemBoundDefaultsToOne) {
  OctInput input(3);
  EXPECT_EQ(input.ItemBound(2), 1u);
  EXPECT_FALSE(input.HasRelaxedBounds());
  input.set_item_bounds({1, 2, 1});
  EXPECT_EQ(input.ItemBound(1), 2u);
  EXPECT_TRUE(input.HasRelaxedBounds());
}

TEST(OctInput, InvertedIndex) {
  const OctInput input = testing_inputs::Figure2Input();
  const kernel::ItemSetIndex index = kernel::ItemSetIndex::Build(input);
  // Item a (0) appears in q1, q2, q4.
  EXPECT_TRUE(std::ranges::equal(index.SetsOf(testing_inputs::a),
                                 std::vector<SetId>{0, 1, 3}));
  // Item f (5) appears in q3, q4.
  EXPECT_TRUE(std::ranges::equal(index.SetsOf(testing_inputs::f),
                                 std::vector<SetId>{2, 3}));
}

TEST(OctInput, AllItems) {
  const OctInput input = testing_inputs::Figure2Input();
  EXPECT_EQ(input.AllItems().size(), 9u);
}

}  // namespace
}  // namespace oct
