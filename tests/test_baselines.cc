// Tests for the three baselines: ET (existing tree), IC-S (semantic item
// clustering), IC-Q (membership item clustering).

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/existing_tree.h"
#include "baselines/ic_q.h"
#include "baselines/ic_s.h"
#include "core/scoring.h"
#include "data/catalog.h"
#include "kernel/item_set_index.h"

namespace oct {
namespace baselines {
namespace {

data::Catalog SmallCatalog(size_t n = 400) {
  return data::Catalog::Generate(data::FashionSchema(), n, 77);
}

OctInput SmallInput(const data::Catalog& catalog) {
  OctInput input(catalog.num_items());
  // A few attribute-value sets as candidate categories.
  input.Add(catalog.ItemsWithValue(0, 0), 3.0, "type0");
  input.Add(catalog.ItemsWithValue(1, 0), 2.0, "brand0");
  input.Add(catalog.ItemsWithValue(2, 1), 1.0, "color1");
  ItemSet type0brand0 =
      catalog.ItemsWithValue(0, 0).Intersect(catalog.ItemsWithValue(1, 0));
  if (!type0brand0.empty()) input.Add(type0brand0, 2.5, "type0 brand0");
  return input;
}

TEST(ExistingTree, TwoLevelStructure) {
  const data::Catalog catalog = SmallCatalog();
  const CategoryTree tree = BuildExistingTree(catalog);
  EXPECT_TRUE(tree.ValidateStructure().ok());
  // Every item is placed exactly once.
  size_t placed = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.IsAlive(id)) placed += tree.node(id).direct_items.size();
  }
  EXPECT_EQ(placed, catalog.num_items());
  // Depth <= 2 (root -> type -> type/brand).
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.IsAlive(id)) EXPECT_LE(tree.Depth(id), 2u);
  }
  // Type categories partition the catalog by attribute 0.
  for (NodeId id : tree.node(tree.root()).children) {
    const ItemSet items = tree.ItemSetOf(id);
    ASSERT_FALSE(items.empty());
    const uint16_t type = catalog.value(*items.begin(), 0);
    for (ItemId item : items) EXPECT_EQ(catalog.value(item, 0), type);
  }
}

TEST(ExistingTree, CategoriesAsCandidateSets) {
  const data::Catalog catalog = SmallCatalog(100);
  const CategoryTree tree = BuildExistingTree(catalog);
  const auto sets = CategoriesAsCandidateSets(tree, 2.0);
  EXPECT_EQ(sets.size(), tree.NumCategories() - 1);  // All but the root.
  for (const auto& cs : sets) {
    EXPECT_FALSE(cs.items.empty());
    EXPECT_DOUBLE_EQ(cs.weight, 2.0);
    EXPECT_FALSE(cs.label.empty());
  }
}

TEST(IcS, ProducesValidTreeCoveringAllItems) {
  const data::Catalog catalog = SmallCatalog();
  const OctInput input = SmallInput(catalog);
  const CategoryTree tree = BuildIcSTree(catalog, input);
  EXPECT_TRUE(tree.ValidateModel(input).ok());
  size_t placed = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.IsAlive(id)) placed += tree.node(id).direct_items.size();
  }
  EXPECT_EQ(placed, catalog.num_items());
}

TEST(IcS, SemanticClustersAreAttributePure) {
  const data::Catalog catalog = SmallCatalog();
  const OctInput input = SmallInput(catalog);
  IcSOptions options;
  options.signature_attributes = 2;
  const CategoryTree tree = BuildIcSTree(catalog, input, options);
  // Leaf categories (except misc) hold items agreeing on type and brand.
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.IsAlive(id) || !tree.IsLeaf(id)) continue;
    if (tree.node(id).label == "misc") continue;
    const ItemSet& items = tree.node(id).direct_items;
    if (items.empty()) continue;
    const ItemId first = *items.begin();
    for (ItemId item : items) {
      EXPECT_EQ(catalog.value(item, 0), catalog.value(first, 0));
      EXPECT_EQ(catalog.value(item, 1), catalog.value(first, 1));
    }
  }
}

TEST(IcS, RespectsClusterCap) {
  const data::Catalog catalog = SmallCatalog();
  const OctInput input = SmallInput(catalog);
  IcSOptions options;
  options.max_clusters = 10;  // Forces signature shrinking to 1 attribute.
  const CategoryTree tree = BuildIcSTree(catalog, input, options);
  EXPECT_TRUE(tree.ValidateStructure().ok());
}

TEST(IcQ, ProducesValidTreeAndGroupsBySignature) {
  const data::Catalog catalog = SmallCatalog();
  const OctInput input = SmallInput(catalog);
  const CategoryTree tree = BuildIcQTree(input);
  EXPECT_TRUE(tree.ValidateModel(input).ok());
  // Items sharing a leaf have identical set membership.
  const kernel::ItemSetIndex index = kernel::ItemSetIndex::Build(input);
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.IsAlive(id) || !tree.IsLeaf(id)) continue;
    if (tree.node(id).label == "misc") continue;
    const ItemSet& items = tree.node(id).direct_items;
    if (items.size() < 2) continue;
    const auto sig = index.SetsOf(*items.begin());
    for (ItemId item : items) {
      EXPECT_TRUE(std::ranges::equal(index.SetsOf(item), sig));
    }
  }
}

TEST(IcQ, CapFoldsRareSignatures) {
  const data::Catalog catalog = SmallCatalog();
  const OctInput input = SmallInput(catalog);
  IcQOptions options;
  options.max_clusters = 3;
  const CategoryTree tree = BuildIcQTree(input, options);
  EXPECT_TRUE(tree.ValidateStructure().ok());
  // At most 3 non-misc leaves.
  size_t leaves = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.IsAlive(id) && tree.IsLeaf(id) &&
        tree.node(id).label != "misc" && id != tree.root()) {
      ++leaves;
    }
  }
  EXPECT_LE(leaves, 3u);
}

TEST(Baselines, IcQBeatsIcSOnSetDrivenInput) {
  // IC-Q sees the input sets, IC-S does not; with candidate sets cutting
  // across the semantic hierarchy, IC-Q should score at least as well.
  const data::Catalog catalog = SmallCatalog();
  OctInput input(catalog.num_items());
  // A cross-cutting set: one color across all types.
  input.Add(catalog.ItemsWithValue(2, 0), 5.0, "black everything");
  input.Add(catalog.ItemsWithValue(2, 1), 3.0, "white everything");
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  const double ic_q =
      ScoreTree(input, BuildIcQTree(input), sim).normalized;
  const double ic_s =
      ScoreTree(input, BuildIcSTree(catalog, input), sim).normalized;
  EXPECT_GE(ic_q, ic_s);
}

}  // namespace
}  // namespace baselines
}  // namespace oct
