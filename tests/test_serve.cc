// Unit tests for the serving subsystem: TreeSnapshot indexes, the
// versioned TreeStore (publish / retain / diff / rollback), and the
// RebuildScheduler's drift detection, publish gates and ServeStats series.

#include <gtest/gtest.h>

#include <memory>

#include "core/scoring.h"
#include "core/serialization.h"
#include "paper_inputs.h"
#include "random_trees.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_snapshot.h"
#include "serve/tree_store.h"

namespace oct {
namespace serve {
namespace {

using testing_inputs::Figure2Input;

/// root -> {shoes -> {sneakers}, shirts}; items spread over the levels.
CategoryTree StoreTree() {
  CategoryTree tree;
  const NodeId shoes = tree.AddCategory(tree.root(), "shoes");
  const NodeId sneakers = tree.AddCategory(shoes, "sneakers");
  const NodeId shirts = tree.AddCategory(tree.root(), "shirts");
  tree.AssignItem(shoes, 0);
  tree.AssignItem(sneakers, 1);
  tree.AssignItem(sneakers, 2);
  tree.AssignItem(shirts, 3);
  return tree;
}

TEST(TreeSnapshot, IndexesPlacementsAndPaths) {
  const TreeSnapshot snap(StoreTree(), 1, "initial");
  EXPECT_EQ(snap.version(), 1u);
  EXPECT_EQ(snap.note(), "initial");
  EXPECT_EQ(snap.num_categories(), 4u);
  EXPECT_EQ(snap.num_items_indexed(), 4u);

  const NodeId sneakers = snap.FindLabel("sneakers");
  ASSERT_NE(sneakers, kInvalidNode);
  const auto placements = snap.PlacementsOf(1);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements.front(), sneakers);
  EXPECT_TRUE(snap.Contains(1));

  const auto path = snap.LabeledPathOf(2);
  ASSERT_EQ(path.size(), 3u);  // root, shoes, sneakers.
  EXPECT_EQ(path[1], "shoes");
  EXPECT_EQ(path[2], "sneakers");
  EXPECT_EQ(snap.DepthOf(sneakers), 2u);
}

TEST(TreeSnapshot, UnplacedAndOutOfRangeItemsAreEmpty) {
  const TreeSnapshot snap(StoreTree(), 1);
  EXPECT_TRUE(snap.PlacementsOf(99).empty());   // Out of index range.
  EXPECT_FALSE(snap.Contains(99));
  EXPECT_TRUE(snap.PathOf(99).empty());
  EXPECT_TRUE(snap.LabeledPathOf(1234567).empty());
  EXPECT_EQ(snap.FindLabel("no such label"), kInvalidNode);
}

TEST(TreeSnapshot, SubtreeCountsAggregateDescendants) {
  const TreeSnapshot snap(StoreTree(), 1);
  const NodeId shoes = snap.FindLabel("shoes");
  const NodeId sneakers = snap.FindLabel("sneakers");
  EXPECT_EQ(snap.SubtreeItemCount(sneakers), 2u);
  EXPECT_EQ(snap.SubtreeItemCount(shoes), 3u);   // Own item + sneakers'.
  EXPECT_EQ(snap.SubtreeItemCount(snap.tree().root()), 4u);
}

TEST(TreeSnapshot, MultiPlacementItemsListAllBranches) {
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "running");
  const NodeId b = tree.AddCategory(tree.root(), "casual");
  tree.AssignItem(a, 7);
  tree.AssignItem(b, 7);  // Branch bound 2: item on two branches.
  const TreeSnapshot snap(std::move(tree), 1);
  EXPECT_EQ(snap.PlacementsOf(7).size(), 2u);
}

TEST(TreeSnapshot, SharedItemCountsOnceAtTheCommonAncestor) {
  NodeId mid;
  CategoryTree tree = testing_trees::SharedItemTree(&mid);
  const TreeSnapshot snap(std::move(tree), 1);
  EXPECT_EQ(snap.SubtreeItemCount(mid), 3u);
  EXPECT_EQ(snap.SubtreeItemCount(snap.tree().root()), 3u);
  EXPECT_EQ(snap.num_items_indexed(), 3u);
}

TEST(TreeSnapshot, SubtreeCountsAreSetSizesOnRandomTrees) {
  for (uint32_t max_bound = 1; max_bound <= 3; ++max_bound) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const TreeSnapshot snap(
          testing_trees::MakeRandomTree(100 * seed + max_bound, max_bound)
              .tree,
          1);
      const CategoryTree& tree = snap.tree();
      for (NodeId v = 0; v < tree.num_nodes(); ++v) {
        EXPECT_EQ(snap.SubtreeItemCount(v), tree.ItemSetOf(v).size())
            << "max bound " << max_bound << ", seed " << seed << ", node "
            << v;
      }
    }
  }
}

TEST(TreeSnapshot, CompactsTombstonesAtBuild) {
  CategoryTree tree = StoreTree();
  const NodeId shirts = 3;
  tree.RemoveNodeKeepChildren(shirts);
  const TreeSnapshot snap(std::move(tree), 1);
  EXPECT_EQ(snap.num_categories(), snap.tree().num_nodes());  // Dense ids.
  // Item 3 merged into the root by the removal; still findable.
  EXPECT_TRUE(snap.Contains(3));
}

TEST(TreeStore, PublishBumpsVersionAndSwapsCurrent) {
  TreeStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.CurrentVersion(), 0u);

  const auto v1 = store.Publish(StoreTree(), "first");
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(store.CurrentVersion(), 1u);
  EXPECT_EQ(store.Current(), v1);

  const auto v2 = store.Publish(CategoryTree(), "empty");
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(store.Current(), v2);
  // The old snapshot stays valid for readers that still hold it.
  EXPECT_EQ(v1->FindLabel("shoes"), 1u);
}

TEST(TreeStore, RetainsLastKVersions) {
  TreeStore store(/*retain=*/2);
  store.Publish(StoreTree(), "v1");
  store.Publish(StoreTree(), "v2");
  store.Publish(StoreTree(), "v3");

  EXPECT_EQ(store.Version(1), nullptr);  // Evicted.
  ASSERT_NE(store.Version(2), nullptr);
  ASSERT_NE(store.Version(3), nullptr);

  const auto versions = store.RetainedVersions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].version, 2u);
  EXPECT_EQ(versions[1].version, 3u);
  EXPECT_EQ(versions[1].note, "v3");
  EXPECT_EQ(versions[1].num_categories, 4u);
  EXPECT_EQ(versions[1].num_items, 4u);
}

TEST(TreeStore, DiffBetweenRetainedVersions) {
  TreeStore store;
  store.Publish(StoreTree(), "v1");

  CategoryTree changed = StoreTree();
  const NodeId shirts = 3;
  changed.UnassignItem(shirts, 3);
  const NodeId sneakers = 2;
  changed.AssignItem(sneakers, 3);  // Item 3 moves shirts -> sneakers.
  store.Publish(std::move(changed), "v2");

  const auto diff = store.Diff(1, 2);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->items_compared, 4u);
  EXPECT_EQ(diff->items_moved, 1u);
  EXPECT_LT(diff->ItemStability(), 1.0);

  const auto self_diff = store.Diff(2, 2);
  ASSERT_TRUE(self_diff.ok());
  EXPECT_DOUBLE_EQ(self_diff->ItemStability(), 1.0);

  const auto missing = store.Diff(1, 99);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(TreeStore, RollbackRepublishesAsNewVersion) {
  TreeStore store;
  store.Publish(StoreTree(), "good");
  store.Publish(CategoryTree(), "bad");  // Empty tree: only a root.
  EXPECT_EQ(store.Current()->num_categories(), 1u);

  const auto rolled = store.Rollback(1);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ((*rolled)->version(), 3u);  // New version, old content.
  EXPECT_EQ(store.Current()->num_categories(), 4u);
  EXPECT_NE(store.Current()->FindLabel("shoes"), kInvalidNode);

  EXPECT_FALSE(store.Rollback(77).ok());
}

TEST(TreeStore, RollbackTargetMustBeRetained) {
  TreeStore store(/*retain=*/1);
  store.Publish(StoreTree(), "v1");
  store.Publish(CategoryTree(), "v2");  // Evicts v1.
  EXPECT_FALSE(store.Rollback(1).ok());
}

class RebuildSchedulerTest : public ::testing::Test {
 protected:
  RebuildSchedulerTest()
      : sim_(Variant::kJaccardThreshold, 0.8), pool_(2) {}

  /// Scheduler over an empty dataset context — fine for CTCR, which only
  /// consumes the offered batch.
  std::unique_ptr<RebuildScheduler> MakeScheduler(RebuildPolicy policy) {
    return std::make_unique<RebuildScheduler>(&store_, &stats_, &dataset_,
                                              sim_, policy, &pool_);
  }

  /// An input the Figure-2 tree scores poorly on: disjoint new sets.
  OctInput DriftedInput() {
    OctInput input(20);
    input.Add(ItemSet({10, 11, 12}), 2.0, "joggers");
    input.Add(ItemSet({13, 14, 15, 16}), 1.0, "windbreakers");
    input.Add(ItemSet({10, 11, 12, 13, 14, 15, 16}), 1.0, "activewear");
    return input;
  }

  data::Dataset dataset_;
  TreeStore store_;
  ServeStats stats_;
  Similarity sim_;
  ThreadPool pool_;
};

TEST_F(RebuildSchedulerTest, RebuildNowBootstrapsAnEmptyStore) {
  auto scheduler = MakeScheduler({});
  const RebuildOutcome outcome = scheduler->RebuildNow(Figure2Input());
  EXPECT_TRUE(outcome.published);
  EXPECT_EQ(outcome.published_version, 1u);
  EXPECT_GT(outcome.candidate_score, 0.0);
  EXPECT_EQ(store_.CurrentVersion(), 1u);
  EXPECT_DOUBLE_EQ(scheduler->published_score(), outcome.candidate_score);
  EXPECT_EQ(stats_.publishes.Value(), 1u);
  EXPECT_EQ(stats_.current_version.Value(), 1);
  EXPECT_EQ(stats_.rebuilds_triggered.Value(), 1u);
  EXPECT_EQ(stats_.rebuilds_published.Value(), 1u);
  const obs::HistogramSnapshot rebuild_us = stats_.rebuild_us.Snapshot();
  EXPECT_EQ(rebuild_us.count, 1u);
  EXPECT_NEAR(rebuild_us.sum, outcome.seconds * 1e6, 1e-6);
}

TEST_F(RebuildSchedulerTest, FreshBatchSimilarToPublishedIsUpToDate) {
  auto scheduler = MakeScheduler({});
  scheduler->RebuildNow(Figure2Input());
  // Re-offering the same distribution: no drift, no rebuild.
  EXPECT_EQ(scheduler->OfferBatch(Figure2Input()),
            BatchDecision::kUpToDate);
  EXPECT_EQ(stats_.rebuilds_triggered.Value(), 1u);  // Bootstrap only.
}

TEST_F(RebuildSchedulerTest, DriftedBatchSchedulesBackgroundRebuild) {
  auto scheduler = MakeScheduler({});
  scheduler->RebuildNow(Figure2Input());
  const TreeVersion before = store_.CurrentVersion();

  EXPECT_EQ(scheduler->OfferBatch(DriftedInput()), BatchDecision::kScheduled);
  scheduler->WaitForRebuild();

  const RebuildOutcome outcome = scheduler->last_outcome();
  EXPECT_TRUE(outcome.published);
  EXPECT_GT(outcome.candidate_score, outcome.current_score);
  EXPECT_GT(store_.CurrentVersion(), before);
  // The served tree now answers the new catalog's lookups.
  EXPECT_TRUE(store_.Current()->Contains(10));
}

TEST_F(RebuildSchedulerTest, OfferBatchBootstrapsWhenNothingServed) {
  auto scheduler = MakeScheduler({});
  EXPECT_EQ(scheduler->OfferBatch(Figure2Input()),
            BatchDecision::kBootstrap);
  scheduler->WaitForRebuild();
  EXPECT_EQ(store_.CurrentVersion(), 1u);
}

TEST_F(RebuildSchedulerTest, ExternallyPublishedTreeAdoptsBaseline) {
  auto scheduler = MakeScheduler({});
  // Publish around the scheduler (bootstrap import path).
  CategoryTree tree;
  const NodeId n = tree.AddCategory(tree.root(), "black shirt");
  for (ItemId x : {0u, 1u, 2u, 3u, 4u}) tree.AssignItem(n, x);
  store_.Publish(std::move(tree), "imported");

  // First offer adopts the observed score as the drift baseline.
  EXPECT_EQ(scheduler->OfferBatch(Figure2Input()),
            BatchDecision::kUpToDate);
  EXPECT_GT(scheduler->published_score(), 0.0);
}

TEST_F(RebuildSchedulerTest, MinPublishGainDiscardsLateralMoves) {
  RebuildPolicy policy;
  policy.min_publish_gain = 10.0;  // Impossible: scores are <= 1.
  auto scheduler = MakeScheduler(policy);
  const RebuildOutcome outcome = scheduler->RebuildNow(Figure2Input());
  EXPECT_FALSE(outcome.published);
  EXPECT_EQ(outcome.published_version, 0u);
  EXPECT_EQ(store_.CurrentVersion(), 0u);
  EXPECT_EQ(stats_.rebuilds_discarded.Value(), 1u);
  EXPECT_EQ(stats_.rebuilds_published.Value(), 0u);
  EXPECT_EQ(stats_.rebuild_us.Count(), 1u);
}

TEST_F(RebuildSchedulerTest, StabilityGateBlocksRadicalUpdates) {
  RebuildPolicy policy;
  policy.min_item_stability = 1.01;  // Impossible: stability is <= 1.
  auto scheduler = MakeScheduler(policy);
  scheduler->RebuildNow(Figure2Input());  // Bootstrap: no served tree, no gate.
  EXPECT_EQ(store_.CurrentVersion(), 1u);

  const RebuildOutcome outcome = scheduler->RebuildNow(DriftedInput());
  EXPECT_FALSE(outcome.published);
  EXPECT_EQ(outcome.reason, "update not conservative enough");
  EXPECT_EQ(store_.CurrentVersion(), 1u);
}

TEST_F(RebuildSchedulerTest, ServedSnapshotSurvivesRebuildAndDiffs) {
  auto scheduler = MakeScheduler({});
  scheduler->RebuildNow(Figure2Input());
  const auto held = store_.Current();  // A "request" holding the snapshot.

  scheduler->RebuildNow(DriftedInput());
  ASSERT_NE(store_.Current(), held);
  // The held snapshot still answers lookups (zero-downtime swap).
  EXPECT_TRUE(held->Contains(0));

  const auto diff = store_.Diff(held->version(), store_.CurrentVersion());
  ASSERT_TRUE(diff.ok());
  EXPECT_GE(diff->novel_categories + diff->matched_categories, 1u);
}

}  // namespace
}  // namespace serve
}  // namespace oct
