// Tests for the CategoryTree representation and its validity rules
// (Section 2.1: child-union containment by construction; one most-specific
// category per item, within per-item branch bounds).

#include <gtest/gtest.h>

#include "core/category_tree.h"
#include "core/tree_index.h"
#include "paper_inputs.h"

namespace oct {
namespace {

using testing_inputs::Figure2Input;

CategoryTree SmallTree(NodeId* n1, NodeId* n2, NodeId* n3) {
  // root -> {A -> {B}, C}
  CategoryTree tree;
  *n1 = tree.AddCategory(tree.root(), "A");
  *n2 = tree.AddCategory(*n1, "B");
  *n3 = tree.AddCategory(tree.root(), "C");
  return tree;
}

TEST(CategoryTree, RootOnlyIsValid) {
  CategoryTree tree;
  EXPECT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.NumCategories(), 1u);
  EXPECT_TRUE(tree.IsLeaf(tree.root()));
}

TEST(CategoryTree, AddCategoryLinksParent) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  EXPECT_EQ(tree.node(b).parent, a);
  EXPECT_EQ(tree.node(a).children, (std::vector<NodeId>{b}));
  EXPECT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.NumCategories(), 4u);
}

TEST(CategoryTree, DepthAndAncestry) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  EXPECT_EQ(tree.Depth(tree.root()), 0u);
  EXPECT_EQ(tree.Depth(b), 2u);
  EXPECT_TRUE(tree.IsAncestor(tree.root(), b));
  EXPECT_TRUE(tree.IsAncestor(a, b));
  EXPECT_FALSE(tree.IsAncestor(b, a));
  EXPECT_FALSE(tree.IsAncestor(c, b));
  EXPECT_TRUE(tree.OnSameBranch(a, b));
  EXPECT_FALSE(tree.OnSameBranch(b, c));
  EXPECT_TRUE(tree.OnSameBranch(a, a));
}

TEST(CategoryTree, LeavesUnder) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  const auto leaves = tree.LeavesUnder(tree.root());
  EXPECT_EQ(leaves.size(), 2u);  // b and c.
  EXPECT_EQ(tree.LeavesUnder(a), (std::vector<NodeId>{b}));
}

TEST(CategoryTree, PreAndPostOrder) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  const auto pre = tree.PreOrder();
  EXPECT_EQ(pre.front(), tree.root());
  EXPECT_EQ(pre.size(), 4u);
  const auto post = tree.PostOrder();
  EXPECT_EQ(post.back(), tree.root());
}

TEST(CategoryTree, ItemSetsAccumulateUpward) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  tree.AssignItem(b, 1);
  tree.AssignItem(a, 2);
  tree.AssignItem(c, 3);
  const auto sets = tree.ComputeItemSets();
  EXPECT_EQ(sets[b], ItemSet({1}));
  EXPECT_EQ(sets[a], ItemSet({1, 2}));
  EXPECT_EQ(sets[tree.root()], ItemSet({1, 2, 3}));
  const TreeIndex index = TreeIndex::Build(tree);
  EXPECT_EQ(index.size(a), 2u);
  EXPECT_EQ(index.size(tree.root()), 3u);
  EXPECT_EQ(tree.ItemSetOf(a), sets[a]);
}

TEST(TreeIndex, ParentsDepthsPlacementsAndSetSizes) {
  // root -> {A -> {B}, C}, then A2 under A and a tombstone D under C. Item 5
  // sits in B and C, item 6 in B and A2, so A holds it once, not twice.
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  const NodeId a2 = tree.AddCategory(a, "A2");
  const NodeId d = tree.AddCategory(c, "D");
  tree.AssignItem(d, 9);
  tree.RemoveNodeKeepChildren(d);  // Item 9 merges into C.
  for (ItemId x : {1u, 5u, 6u}) tree.AssignItem(b, x);
  for (ItemId x : {5u, 7u}) tree.AssignItem(c, x);
  tree.AssignItem(a2, 6);
  tree.AssignItem(a, 2);

  const TreeIndex index = TreeIndex::Build(tree);
  ASSERT_EQ(index.num_nodes(), tree.num_nodes());
  EXPECT_EQ(index.parents()[tree.root()], kInvalidNode);
  EXPECT_EQ(index.parents()[b], a);
  EXPECT_EQ(index.parents()[d], kInvalidNode);
  EXPECT_EQ(index.depth(b), 2u);
  EXPECT_EQ(index.depth(c), 1u);
  // Placements in pre-order (A's subtree before C), only alive nodes.
  const auto five = index.PlacementsOf(5);
  EXPECT_EQ(std::vector<NodeId>(five.begin(), five.end()),
            (std::vector<NodeId>{b, c}));
  EXPECT_EQ(index.PlacementsOf(9).size(), 1u);
  EXPECT_TRUE(index.PlacementsOf(3).empty());
  EXPECT_TRUE(index.PlacementsOf(10).empty());
  EXPECT_EQ(index.item_limit(), 10u);
  EXPECT_EQ(index.num_items_placed(), 6u);  // 1, 2, 5, 6, 7, 9.
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const size_t expected = tree.IsAlive(id) ? tree.ItemSetOf(id).size() : 0;
    EXPECT_EQ(index.size(id), expected) << "node " << id;
  }
  EXPECT_EQ(index.size(a), 4u);             // {1, 2, 5, 6}.
  EXPECT_EQ(index.size(tree.root()), 6u);
}

TEST(CategoryTree, MoveNodeReparents) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  tree.MoveNode(c, a);
  EXPECT_EQ(tree.node(c).parent, a);
  EXPECT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.LeavesUnder(a).size(), 2u);
}

TEST(CategoryTree, RemoveNodeKeepChildrenMergesItems) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  tree.AssignItem(a, 7);
  tree.RemoveNodeKeepChildren(a);
  EXPECT_FALSE(tree.IsAlive(a));
  EXPECT_EQ(tree.node(b).parent, tree.root());
  EXPECT_TRUE(tree.node(tree.root()).direct_items.Contains(7));
  EXPECT_TRUE(tree.ValidateStructure().ok());
  EXPECT_EQ(tree.NumCategories(), 3u);
}

TEST(CategoryTree, ValidateModelAcceptsProperPlacement) {
  const OctInput input = Figure2Input();
  CategoryTree tree;
  const NodeId n = tree.AddCategory(tree.root(), "x");
  tree.AssignItem(n, 0);
  tree.AssignItem(tree.root(), 1);
  EXPECT_TRUE(tree.ValidateModel(input).ok());
}

TEST(CategoryTree, ValidateModelRejectsTwoPlacementsWithBoundOne) {
  const OctInput input = Figure2Input();
  CategoryTree tree;
  const NodeId n1 = tree.AddCategory(tree.root(), "x");
  const NodeId n2 = tree.AddCategory(tree.root(), "y");
  tree.AssignItem(n1, 0);
  tree.AssignItem(n2, 0);
  EXPECT_FALSE(tree.ValidateModel(input).ok());
}

TEST(CategoryTree, ValidateModelAllowsTwoBranchesWithBoundTwo) {
  OctInput input = Figure2Input();
  std::vector<uint32_t> bounds(9, 1);
  bounds[0] = 2;
  input.set_item_bounds(bounds);
  CategoryTree tree;
  const NodeId n1 = tree.AddCategory(tree.root(), "x");
  const NodeId n2 = tree.AddCategory(tree.root(), "y");
  tree.AssignItem(n1, 0);
  tree.AssignItem(n2, 0);
  EXPECT_TRUE(tree.ValidateModel(input).ok());
}

TEST(CategoryTree, ValidateModelRejectsSameBranchDuplicateEvenWithBound) {
  OctInput input = Figure2Input();
  input.set_item_bounds(std::vector<uint32_t>(9, 2));
  CategoryTree tree;
  const NodeId n1 = tree.AddCategory(tree.root(), "x");
  const NodeId n2 = tree.AddCategory(n1, "y");
  tree.AssignItem(n1, 0);
  tree.AssignItem(n2, 0);
  EXPECT_FALSE(tree.ValidateModel(input).ok());
}

TEST(CategoryTree, ValidateModelRejectsItemOutsideUniverse) {
  OctInput input(2);
  input.Add(ItemSet({0}), 1.0);
  CategoryTree tree;
  tree.AssignItem(tree.root(), 9);
  EXPECT_FALSE(tree.ValidateModel(input).ok());
}

TEST(CategoryTree, CompactRemapsIds) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  tree.AssignItem(b, 1);
  tree.RemoveNodeKeepChildren(a);
  const auto remap = tree.Compact();
  EXPECT_EQ(remap[a], kInvalidNode);
  EXPECT_NE(remap[b], kInvalidNode);
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_TRUE(tree.ValidateStructure().ok());
  // Item placement survived.
  bool found = false;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.node(id).direct_items.Contains(1)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CategoryTree, ToStringShowsLabels) {
  NodeId a, b, c;
  CategoryTree tree = SmallTree(&a, &b, &c);
  const std::string s = tree.ToString();
  EXPECT_NE(s.find("A"), std::string::npos);
  EXPECT_NE(s.find("root"), std::string::npos);
}

}  // namespace
}  // namespace oct
