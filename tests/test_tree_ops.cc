// Tests for tree post-processing: intermediate categories (Alg. 1 lines
// 21-23), condensing (lines 24-25), and the misc category (line 26).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scoring.h"
#include "core/serialization.h"
#include "core/tree_ops.h"
#include "ctcr/ctcr.h"
#include "data/datasets.h"
#include "kernel/item_set_index.h"
#include "reference_tree_ops.h"
#include "util/rng.h"

namespace oct {
namespace {

TEST(Intermediates, RecombinesIntersectingSiblings) {
  // Figure 6 flavor: three sibling categories; two of their sets intersect
  // heavily (q2 subset of q3) -> an intermediate parent covering the union.
  OctInput input(8);
  const SetId q1 = input.Add(ItemSet({0, 1, 2}), 2.0, "q1");
  const SetId q2 = input.Add(ItemSet({3, 4}), 1.0, "q2");
  const SetId q3 = input.Add(ItemSet({3, 4, 5, 6}), 3.0, "q3");
  CategoryTree tree;
  const NodeId c1 = tree.AddCategory(tree.root(), "C1", q1);
  const NodeId c2 = tree.AddCategory(tree.root(), "C2", q2);
  const NodeId c3 = tree.AddCategory(tree.root(), "C3", q3);
  (void)c1;
  const size_t added = AddIntermediateCategories(input, &tree);
  EXPECT_EQ(added, 1u);
  // C2 and C3 now share an intermediate parent; C1 does not.
  EXPECT_EQ(tree.node(c2).parent, tree.node(c3).parent);
  EXPECT_NE(tree.node(c2).parent, tree.root());
  EXPECT_EQ(tree.node(c1).parent, tree.root());
  EXPECT_TRUE(tree.ValidateStructure().ok());
}

TEST(Intermediates, StopsAtTwoChildren) {
  OctInput input(6);
  const SetId q1 = input.Add(ItemSet({0, 1}), 1.0, "q1");
  const SetId q2 = input.Add(ItemSet({1, 2}), 1.0, "q2");
  CategoryTree tree;
  tree.AddCategory(tree.root(), "C1", q1);
  tree.AddCategory(tree.root(), "C2", q2);
  // Only two children: the loop must not fire even though the sets overlap.
  EXPECT_EQ(AddIntermediateCategories(input, &tree), 0u);
}

TEST(Intermediates, NoIntersectionsNoChange) {
  OctInput input(9);
  const SetId q1 = input.Add(ItemSet({0, 1}), 1.0, "q1");
  const SetId q2 = input.Add(ItemSet({2, 3}), 1.0, "q2");
  const SetId q3 = input.Add(ItemSet({4, 5}), 1.0, "q3");
  CategoryTree tree;
  tree.AddCategory(tree.root(), "C1", q1);
  tree.AddCategory(tree.root(), "C2", q2);
  tree.AddCategory(tree.root(), "C3", q3);
  EXPECT_EQ(AddIntermediateCategories(input, &tree), 0u);
}

TEST(Intermediates, CascadesUntilBinaryOrDisjoint) {
  // Four pairwise-intersecting sets collapse into a two-child structure.
  OctInput input(10);
  const SetId q1 = input.Add(ItemSet({0, 1, 2}), 1.0, "q1");
  const SetId q2 = input.Add(ItemSet({2, 3, 4}), 1.0, "q2");
  const SetId q3 = input.Add(ItemSet({4, 5, 6}), 1.0, "q3");
  const SetId q4 = input.Add(ItemSet({6, 7, 8}), 1.0, "q4");
  CategoryTree tree;
  tree.AddCategory(tree.root(), "C1", q1);
  tree.AddCategory(tree.root(), "C2", q2);
  tree.AddCategory(tree.root(), "C3", q3);
  tree.AddCategory(tree.root(), "C4", q4);
  const size_t added = AddIntermediateCategories(input, &tree);
  EXPECT_GE(added, 2u);
  EXPECT_LE(tree.node(tree.root()).children.size(), 2u);
  EXPECT_TRUE(tree.ValidateStructure().ok());
}

/// A tree for AddIntermediateCategories and the input its source sets
/// point into.
struct MergeCase {
  OctInput input;
  CategoryTree tree;
};

/// Shape knobs of one random case: how many children the root and a
/// nested parent get, how deep the nesting goes, and the universe and set
/// sizes (small ones make many pairs tie on their shared fraction).
struct MergeShape {
  size_t root_children[2];    // [min, max]
  size_t nested_children[2];  // [min, max]
  int depth;
  size_t universe;
  size_t max_set_size;
};

ItemSet RandomItems(Rng* rng, const MergeShape& shape) {
  std::vector<ItemId> items(1 + rng->NextBelow(shape.max_set_size));
  for (ItemId& item : items) item = ItemId(rng->NextBelow(shape.universe));
  return ItemSet(std::move(items));
}

/// Adds a random number of children under `parent`. Most carry a source
/// set; the rest carry only direct items and possibly a subtree, so their
/// associated set is their subtree's items (the ItemSetOf path), which may
/// be empty.
void AddRandomChildren(Rng* rng, const MergeShape& shape, int depth,
                       NodeId parent, MergeCase* c) {
  const size_t* range = depth == shape.depth ? shape.root_children
                                             : shape.nested_children;
  const size_t count = range[0] + rng->NextBelow(range[1] - range[0] + 1);
  for (size_t k = 0; k < count; ++k) {
    NodeId node;
    if (rng->NextBernoulli(0.75)) {
      const SetId s = c->input.Add(RandomItems(rng, shape), 1.0,
                                   "q" + std::to_string(c->input.num_sets()));
      node = c->tree.AddCategory(parent, c->input.set(s).label, s);
    } else {
      node = c->tree.AddCategory(parent,
                                 "n" + std::to_string(c->tree.num_nodes()));
      if (rng->NextBernoulli(0.8)) {
        for (ItemId item : RandomItems(rng, shape)) {
          c->tree.AssignItem(node, item);
        }
      }
    }
    if (depth > 0 && rng->NextBernoulli(0.3)) {
      AddRandomChildren(rng, shape, depth - 1, node, c);
    }
  }
}

// The counting pass against the recompute-everything reference: same
// return value and the same serialized tree (shape, child order, labels)
// on random wide, nested and tie-heavy trees.
TEST(Intermediates, MatchesReferenceOnRandomTrees) {
  struct Family {
    const char* name;
    MergeShape shape;
    int cases;
  };
  const Family kFamilies[] = {
      {"wide", {{200, 260}, {3, 8}, 1, 2500, 16}, 5},
      {"nested", {{3, 9}, {3, 9}, 3, 60, 8}, 300},
      {"tie-heavy", {{3, 40}, {3, 6}, 1, 7, 3}, 300},
  };
  Rng rng(2022);
  for (const Family& family : kFamilies) {
    size_t total_added = 0;
    for (int i = 0; i < family.cases; ++i) {
      MergeCase c;
      c.input = OctInput(family.shape.universe);
      AddRandomChildren(&rng, family.shape, family.shape.depth,
                        c.tree.root(), &c);
      CategoryTree expected = c.tree;
      const size_t want = reference::AddIntermediateCategories(c.input,
                                                               &expected);
      const size_t got = AddIntermediateCategories(c.input, &c.tree);
      ASSERT_EQ(got, want) << family.name << " case " << i;
      ASSERT_EQ(SerializeTree(c.tree), SerializeTree(expected))
          << family.name << " case " << i;
      total_added += got;
    }
    // Every family really merges (and so really exercises the pushes that
    // follow a merge).
    EXPECT_GT(total_added, size_t(family.cases)) << family.name;
  }
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

// Pinned CTCR trees on datasets A-C (threshold Jaccard 0.8): a change to
// how intermediate categories are found must reproduce them byte for byte.
TEST(Intermediates, CtcrTreesMatchPinnedDigests) {
  struct Pinned {
    char dataset;
    double scale;
    size_t intermediates;
    uint64_t digest;  // FNV-1a of SerializeTree.
  };
  const Pinned kPinned[] = {
      {'A', 0.08, 70, 0x1565e00f1f7b6751ULL},
      {'B', 0.08, 90, 0xeb892ff7ff92a32fULL},
      {'C', 0.08, 202, 0x214b561a48b8cafbULL},
  };
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  for (const Pinned& pinned : kPinned) {
    const data::Dataset ds = data::MakeDataset(pinned.dataset, sim,
                                               pinned.scale);
    const ctcr::CtcrResult built = ctcr::BuildCategoryTree(ds.input, sim);
    const uint64_t digest = Fnv1a(SerializeTree(built.tree));
    EXPECT_EQ(built.intermediates_added, pinned.intermediates)
        << pinned.dataset;
    EXPECT_EQ(digest, pinned.digest)
        << pinned.dataset << std::hex << " 0x" << digest;
  }
}

TEST(Condense, RemovesNonCoveringCategoryAndKeepsItems) {
  // Category B covers nothing; it must be removed, its items flowing to the
  // parent so surviving ancestors keep their full sets.
  OctInput input(6);
  input.Add(ItemSet({0, 1, 2, 3}), 1.0, "q");
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "A");
  const NodeId b = tree.AddCategory(a, "B");
  tree.AssignItem(a, 0);
  tree.AssignItem(a, 1);
  tree.AssignItem(b, 2);
  tree.AssignItem(b, 3);
  const Similarity sim(Variant::kJaccardThreshold, 0.9);
  const CondenseStats stats =
      CondenseTree(kernel::ItemSetIndex::Build(input), sim, &tree);
  EXPECT_EQ(stats.categories_removed, 1u);
  EXPECT_TRUE(tree.IsAlive(a));
  EXPECT_FALSE(tree.IsAlive(b));
  EXPECT_EQ(tree.ItemSetOf(a).size(), 4u);  // Items preserved.
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_DOUBLE_EQ(score.total, 1.0);
}

TEST(Condense, RemovesItemsOnlyInUncoveredSets) {
  OctInput input(6);
  input.Add(ItemSet({0, 1}), 1.0, "covered");
  input.Add(ItemSet({4, 5}), 1.0, "uncovered");
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "A");
  tree.AssignItem(a, 0);
  tree.AssignItem(a, 1);
  tree.AssignItem(a, 4);  // Pollutes A with an uncovered-set item.
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  const CondenseStats stats =
      CondenseTree(kernel::ItemSetIndex::Build(input), sim, &tree);
  EXPECT_GE(stats.items_removed, 1u);
  EXPECT_FALSE(tree.ItemSetOf(a).Contains(4));
  // Removing 4 raises A's precision: J(covered, A) = 1 now.
  const TreeScore score = ScoreTree(input, tree, sim);
  EXPECT_TRUE(score.per_set[0].covered);
}

TEST(Condense, KeepsHighestPrecisionCoverOnTies) {
  OctInput input(8);
  input.Add(ItemSet({0, 1, 2}), 1.0, "q");
  CategoryTree tree;
  const NodeId precise = tree.AddCategory(tree.root(), "precise");
  const NodeId loose = tree.AddCategory(tree.root(), "loose");
  for (ItemId x : {0u, 1u, 2u}) tree.AssignItem(precise, x);
  // loose cannot hold the same items (bound 1); give it a weaker overlap.
  for (ItemId x : {3u, 4u}) tree.AssignItem(loose, x);
  const Similarity sim(Variant::kJaccardThreshold, 0.5);
  CondenseTree(kernel::ItemSetIndex::Build(input), sim, &tree);
  EXPECT_TRUE(tree.IsAlive(precise));
  EXPECT_FALSE(tree.IsAlive(loose));
}

// Removing a category lifts its children, and the best-cover tie-break
// reads depth and then NodeId. q0 ties at Jaccard 0.5 with Y, R and X;
// condensing's own annotation gives it to X, the deepest, and keeps X.
// Removing R (which covers nothing) lifts X to Y's depth, so a fresh
// annotation gives q0 to Y, the smaller id. The annotation CTCR and CCT run
// after condensing is therefore needed even when no misc category is added.
TEST(Condense, RemovalCanMoveABestCover) {
  OctInput input(21);
  const SetId q0 = input.Add(ItemSet({1, 2, 3, 4}), 1.0, "q0");
  const SetId q1 = input.Add(ItemSet({3, 4}), 1.0, "q1");
  std::vector<ItemId> tail;
  for (ItemId item = 5; item <= 20; ++item) tail.push_back(item);
  const SetId q2 = input.Add(ItemSet(tail), 1.0, "q2");
  CategoryTree tree;
  const NodeId y = tree.AddCategory(tree.root(), "Y");
  const NodeId r = tree.AddCategory(tree.root(), "R");
  const NodeId x = tree.AddCategory(r, "X");
  const NodeId z = tree.AddCategory(tree.root(), "Z");
  ASSERT_LT(y, r);
  ASSERT_LT(r, x);
  for (ItemId item : {3u, 4u}) tree.AssignItem(y, item);
  for (ItemId item : {1u, 2u}) tree.AssignItem(x, item);
  for (ItemId item : tail) tree.AssignItem(z, item);
  const Similarity sim(Variant::kJaccardCutoff, 0.5);

  const CondenseStats stats =
      CondenseTree(kernel::ItemSetIndex::Build(input), sim, &tree);
  EXPECT_EQ(stats.categories_removed, 1u);
  EXPECT_FALSE(tree.IsAlive(r));
  EXPECT_EQ(tree.node(x).parent, tree.root());
  EXPECT_EQ(tree.node(x).covered_sets, std::vector<SetId>{q0});
  EXPECT_EQ(tree.node(y).covered_sets, std::vector<SetId>{q1});

  AnnotateCoveredSets(input, sim, &tree);
  EXPECT_TRUE(tree.node(x).covered_sets.empty());
  EXPECT_EQ(tree.node(y).covered_sets, (std::vector<SetId>{q0, q1}));
  EXPECT_EQ(tree.node(z).covered_sets, std::vector<SetId>{q2});
}

TEST(MiscCategory, CollectsUnassignedItems) {
  OctInput input(5);
  input.Add(ItemSet({0, 1}), 1.0, "q");
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "A");
  tree.AssignItem(a, 0);
  tree.AssignItem(a, 1);
  const NodeId misc = AddMiscCategory(input, &tree);
  ASSERT_NE(misc, kInvalidNode);
  EXPECT_EQ(tree.node(misc).direct_items, ItemSet({2, 3, 4}));
  EXPECT_EQ(tree.node(misc).parent, tree.root());
  EXPECT_TRUE(tree.ValidateModel(input).ok());
}

TEST(MiscCategory, NoOpWhenEverythingPlaced) {
  OctInput input(2);
  input.Add(ItemSet({0, 1}), 1.0, "q");
  CategoryTree tree;
  tree.AssignItem(tree.root(), 0);
  tree.AssignItem(tree.root(), 1);
  EXPECT_EQ(AddMiscCategory(input, &tree), kInvalidNode);
}

}  // namespace
}  // namespace oct
