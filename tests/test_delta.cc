// Tests for oct::delta: the coalescing DeltaLog, the WorkingSet (stable
// slots, postings, intersection-graph components, DiffOps), the
// DeltaBuilder's incremental re-resolution with its equivalence harness,
// and the DeltaMaintainer's publish / scheduler-hook / recovery paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/scoring.h"
#include "delta/delta_builder.h"
#include "delta/delta_log.h"
#include "delta/delta_stats.h"
#include "delta/maintainer.h"
#include "delta/working_set.h"
#include "fault/failpoint.h"
#include "paper_inputs.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace oct {
namespace delta {
namespace {

CandidateSet MakeSet(std::string label, std::vector<ItemId> items,
                     double weight = 1.0) {
  CandidateSet set;
  set.items = ItemSet(std::move(items));
  set.weight = weight;
  set.label = std::move(label);
  return set;
}

uint64_t Key(const std::string& label) { return DeltaLog::KeyForLabel(label); }

/// Applies `ops` as one batch with locally-assigned seqs (the shape
/// DeltaMaintainer::BuildCandidate uses internally).
DeltaBatch BatchOf(std::vector<DeltaOp> ops) {
  DeltaBatch batch;
  batch.ops = std::move(ops);
  uint64_t seq = 0;
  for (DeltaOp& op : batch.ops) op.seq = ++seq;
  if (!batch.ops.empty()) {
    batch.first_seq = 1;
    batch.last_seq = seq;
  }
  return batch;
}

// ---------------------------------------------------------------- DeltaLog

TEST(DeltaLog, AssignsMonotoneSeqsAndDrainsInOrder) {
  DeltaLog log;
  EXPECT_EQ(log.next_seq(), 1u);
  EXPECT_EQ(log.UpsertQuery(Key("q1"), MakeSet("q1", {0, 1})), 1u);
  EXPECT_EQ(log.RemoveItem(7), 2u);
  EXPECT_EQ(log.UpsertQuery(Key("q2"), MakeSet("q2", {2})), 3u);
  EXPECT_EQ(log.pending(), 3u);

  const DeltaBatch batch = log.DrainBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.first_seq, 1u);
  EXPECT_EQ(batch.last_seq, 3u);
  EXPECT_TRUE(std::is_sorted(
      batch.ops.begin(), batch.ops.end(),
      [](const DeltaOp& x, const DeltaOp& y) { return x.seq < y.seq; }));
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_TRUE(log.DrainBatch().empty());
}

TEST(DeltaLog, CoalescesSameKeyToTail) {
  DeltaLog log;
  log.UpsertQuery(Key("q1"), MakeSet("q1", {0, 1}));
  log.RemoveItem(1);
  // Newer upsert for q1 supersedes the pending one and moves to the tail —
  // it must not jump backwards over the RemoveItem.
  log.UpsertQuery(Key("q1"), MakeSet("q1", {0, 1, 2}));
  EXPECT_EQ(log.pending(), 2u);
  EXPECT_EQ(log.coalesced(), 1u);

  const DeltaBatch batch = log.DrainBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ops[0].kind, DeltaOp::Kind::kRemoveItem);
  EXPECT_EQ(batch.ops[1].kind, DeltaOp::Kind::kUpsertQuery);
  EXPECT_TRUE(batch.ops[1].set.items.Contains(2));
}

TEST(DeltaLog, RemoveSupersedesPendingUpsertAndItemsDedupe) {
  DeltaLog log;
  log.UpsertQuery(Key("gone"), MakeSet("gone", {3}));
  log.RemoveQuery(Key("gone"));
  log.RemoveItem(9);
  log.RemoveItem(9);
  EXPECT_EQ(log.pending(), 2u);
  EXPECT_EQ(log.coalesced(), 2u);

  const DeltaBatch batch = log.DrainBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ops[0].kind, DeltaOp::Kind::kRemoveQuery);
  EXPECT_EQ(batch.ops[1].kind, DeltaOp::Kind::kRemoveItem);
}

TEST(DeltaLog, DrainBatchHonorsMaxOps) {
  DeltaLog log;
  for (int i = 0; i < 5; ++i) {
    log.UpsertQuery(Key("q" + std::to_string(i)),
                    MakeSet("q" + std::to_string(i), {ItemId(i)}));
  }
  const DeltaBatch first = log.DrainBatch(2);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(first.last_seq, 2u);
  const DeltaBatch rest = log.DrainBatch();
  EXPECT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest.first_seq, 3u);
}

TEST(DeltaLog, KeyForLabelIsStableAndNonZero) {
  EXPECT_EQ(Key("black shirt"), Key("black shirt"));
  EXPECT_NE(Key("black shirt"), Key("nike shirt"));
  EXPECT_NE(Key(""), 0u);
}

// -------------------------------------------------------------- WorkingSet

TEST(WorkingSet, UpsertsMaterializeAndIdenticalUpsertIsNoop) {
  WorkingSet ws;
  DeltaBatch batch = BatchOf({
      {DeltaOp::Kind::kUpsertQuery, Key("q1"), MakeSet("q1", {0, 1, 2}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("q2"), MakeSet("q2", {4}), 0, 0},
  });
  ApplyOpsResult applied = ws.ApplyBatch(batch);
  EXPECT_EQ(applied.ops_applied, 2u);
  EXPECT_EQ(ws.num_alive(), 2u);
  EXPECT_EQ(ws.universe_size(), 5u);

  const OctInput input = ws.Materialize();
  ASSERT_EQ(input.num_sets(), 2u);
  EXPECT_EQ(input.set(0).label, "q1");
  EXPECT_EQ(input.set(1).items, ItemSet({4}));

  // Re-upserting identical content changes nothing and bumps no version.
  const uint64_t v = ws.version(0);
  applied = ws.ApplyBatch(BatchOf(
      {{DeltaOp::Kind::kUpsertQuery, Key("q1"), MakeSet("q1", {0, 1, 2}), 0,
        0}}));
  EXPECT_EQ(applied.ops_applied, 0u);
  EXPECT_EQ(applied.ops_noop, 1u);
  EXPECT_TRUE(applied.touched_slots.empty());
  EXPECT_EQ(ws.version(0), v);
}

TEST(WorkingSet, RemoveQueryTombstonesWithoutShiftingSlots) {
  WorkingSet ws;
  ws.ApplyBatch(BatchOf({
      {DeltaOp::Kind::kUpsertQuery, Key("q1"), MakeSet("q1", {0, 1}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("q2"), MakeSet("q2", {1, 2}), 0, 0},
  }));
  ws.ApplyBatch(
      BatchOf({{DeltaOp::Kind::kRemoveQuery, Key("q1"), CandidateSet{}, 0,
                0}}));
  EXPECT_EQ(ws.num_slots(), 2u);
  EXPECT_EQ(ws.num_alive(), 1u);
  EXPECT_FALSE(ws.alive(0));
  // The tombstoned slot is off the postings; the survivor keeps its slot.
  EXPECT_TRUE(ws.Postings(1) == std::vector<uint32_t>{1});
  const OctInput input = ws.Materialize();
  ASSERT_EQ(input.num_sets(), 1u);
  EXPECT_EQ(input.set(0).label, "q2");

  // Removing an unknown key is a no-op, not an error.
  const ApplyOpsResult applied = ws.ApplyBatch(BatchOf(
      {{DeltaOp::Kind::kRemoveQuery, Key("never"), CandidateSet{}, 0, 0}}));
  EXPECT_EQ(applied.ops_noop, 1u);
}

TEST(WorkingSet, RemoveItemScrubsHoldersAndKillsEmptiedSets) {
  WorkingSet ws;
  ws.ApplyBatch(BatchOf({
      {DeltaOp::Kind::kUpsertQuery, Key("q1"), MakeSet("q1", {0, 5}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("q2"), MakeSet("q2", {5}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("q3"), MakeSet("q3", {6}), 0, 0},
  }));
  const ApplyOpsResult applied = ws.ApplyBatch(
      BatchOf({{DeltaOp::Kind::kRemoveItem, 0, CandidateSet{}, 5, 0}}));
  EXPECT_EQ(applied.ops_applied, 1u);
  // q1 shrank, q2 (now empty) died, q3 untouched.
  EXPECT_EQ(ws.num_alive(), 2u);
  EXPECT_EQ(ws.set(0).items, ItemSet({0}));
  EXPECT_FALSE(ws.alive(1));
  EXPECT_TRUE(ws.Postings(5).empty());
  EXPECT_EQ(applied.touched_slots, (std::vector<uint32_t>{0, 1}));
}

TEST(WorkingSet, ComponentsFollowSharedItems) {
  WorkingSet ws;
  ws.ApplyBatch(BatchOf({
      {DeltaOp::Kind::kUpsertQuery, Key("a1"), MakeSet("a1", {0, 1}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("a2"), MakeSet("a2", {1, 2}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("b1"), MakeSet("b1", {10, 11}), 0, 0},
      {DeltaOp::Kind::kUpsertQuery, Key("c1"), MakeSet("c1", {20}), 0, 0},
  }));
  WorkingSet::Components components = ws.ComputeComponents();
  ASSERT_EQ(components.members.size(), 3u);
  EXPECT_EQ(components.members[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(components.members[1], (std::vector<uint32_t>{2}));
  EXPECT_EQ(components.members[2], (std::vector<uint32_t>{3}));
  EXPECT_EQ(components.component_of[1], 0u);

  // An upsert bridging the a-cluster and b-cluster merges their components.
  ws.ApplyBatch(BatchOf(
      {{DeltaOp::Kind::kUpsertQuery, Key("bridge"),
        MakeSet("bridge", {2, 10}), 0, 0}}));
  components = ws.ComputeComponents();
  ASSERT_EQ(components.members.size(), 2u);
  EXPECT_EQ(components.members[0], (std::vector<uint32_t>{0, 1, 2, 4}));
}

TEST(WorkingSet, DiffOpsRoundTripsABatchInput) {
  const OctInput truth = testing_inputs::Figure2Input();
  WorkingSet ws;
  ws.ApplyBatch(BatchOf(ws.DiffOps(truth)));
  const OctInput materialized = ws.Materialize();
  ASSERT_EQ(materialized.num_sets(), truth.num_sets());
  for (SetId q = 0; q < truth.num_sets(); ++q) {
    EXPECT_EQ(materialized.set(q).items, truth.set(q).items);
    EXPECT_EQ(materialized.set(q).label, truth.set(q).label);
  }
  // Already in sync: the diff against the same truth is empty.
  EXPECT_TRUE(ws.DiffOps(truth).empty());

  // Dropping a query from the truth diffs to exactly one removal.
  OctInput smaller(truth.universe_size());
  for (SetId q = 0; q + 1 < truth.num_sets(); ++q) smaller.Add(truth.set(q));
  const std::vector<DeltaOp> ops = ws.DiffOps(smaller);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, DeltaOp::Kind::kRemoveQuery);
  ws.ApplyBatch(BatchOf(ops));
  EXPECT_EQ(ws.num_alive(), smaller.num_sets());
}

TEST(WorkingSet, DiffOpsDisambiguatesDuplicateLabels) {
  OctInput truth(6);
  truth.Add(ItemSet({0, 1}), 1.0, "same");
  truth.Add(ItemSet({2, 3}), 1.0, "same");
  WorkingSet ws;
  ws.ApplyBatch(BatchOf(ws.DiffOps(truth)));
  EXPECT_EQ(ws.num_alive(), 2u);
  EXPECT_TRUE(ws.DiffOps(truth).empty());
}

// ------------------------------------------------------------ DeltaBuilder

/// Seeds a builder with `input` (as one upsert batch) and returns the
/// spliced tree outcome.
DeltaApplyOutcome Seed(DeltaBuilder* builder, const OctInput& input) {
  Result<DeltaApplyOutcome> outcome =
      builder->ApplyBatch(BatchOf(builder->working_set().DiffOps(input)));
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return std::move(outcome).value();
}

TEST(DeltaBuilder, SeedBatchBuildsValidTreeAndPassesHarness) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  DeltaBuilder builder(sim);
  const DeltaApplyOutcome outcome =
      Seed(&builder, testing_inputs::Figure2Input());
  EXPECT_GT(outcome.tree.num_nodes(), 1u);
  EXPECT_TRUE(
      outcome.tree.ValidateModel(builder.CumulativeInput()).ok());
  EXPECT_TRUE(builder.VerifyEquivalence(outcome.tree, 0.05).ok());
}

// Regression: component-local condense must bar the local root from
// best-cover candidacy. The local root's full item set equals the
// component union, so with root candidacy on it "best-covers" the
// component's own top category, and condense merges that category into
// the root — here, upserting a set nested inside seed-a used to erase
// seed-a from the tree entirely (half the satisfied weight vanished vs
// the plain batch build, whose root is diluted by seed-b's items).
TEST(DeltaBuilder, LocalCondenseKeepsComponentTopCategories) {
  const Similarity sim(Variant::kJaccardThreshold, 0.5);
  DeltaBuilder builder(sim);
  OctInput input(8);
  input.Add(ItemSet({0, 1, 2}), 2.0, "seed-a");
  input.Add(ItemSet({5, 6, 7}), 1.0, "seed-b");
  Seed(&builder, input);

  DeltaOp op;
  op.kind = DeltaOp::Kind::kUpsertQuery;
  op.key = Key("q0");
  op.set = MakeSet("q0", {0});
  const Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(BatchOf({op}));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  bool seed_a_alive = false;
  const CategoryTree& tree = outcome.value().tree;
  for (NodeId n = 0; n < tree.num_nodes(); ++n) {
    if (tree.IsAlive(n) && tree.node(n).label == "seed-a") {
      seed_a_alive = true;
    }
  }
  EXPECT_TRUE(seed_a_alive)
      << DeltaBuilder::CanonicalTreeString(tree);
  const Status verified = builder.VerifyEquivalence(outcome.value().tree, 0.05);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

TEST(DeltaBuilder, SmallDeltaRebuildsOnlyTouchedComponent) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  DeltaStats stats;
  DeltaBuilderOptions options;
  options.max_dirty_fraction = 0.9;
  DeltaBuilder builder(sim, options, &stats);

  // Three item-disjoint clusters of two overlapping sets each.
  OctInput input(30);
  for (int c = 0; c < 3; ++c) {
    const ItemId base = ItemId(10 * c);
    input.Add(ItemSet({base, base + 1, base + 2}), 2.0,
              "c" + std::to_string(c) + "a");
    input.Add(ItemSet({base + 1, base + 2, base + 3}), 1.0,
              "c" + std::to_string(c) + "b");
  }
  Seed(&builder, input);

  // Touch only cluster 1.
  DeltaOp op;
  op.kind = DeltaOp::Kind::kUpsertQuery;
  op.key = Key("c1a");
  op.set = MakeSet("c1a", {10, 11, 12, 14}, 2.0);
  Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(BatchOf({op}));
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().fallback_full);
  EXPECT_EQ(outcome.value().total_components, 3u);
  EXPECT_EQ(outcome.value().dirty_components, 1u);
  EXPECT_EQ(outcome.value().reused_components, 2u);
  EXPECT_EQ(outcome.value().sets_rebuilt, 2u);
  EXPECT_TRUE(builder.VerifyEquivalence(outcome.value().tree, 0.05).ok());

  const DeltaStatsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.components_reused, 2u);
  EXPECT_EQ(snap.last_dirty_components, 1);
  EXPECT_EQ(snap.components_total, 3);
}

TEST(DeltaBuilder, DriftBoundFallsBackToFullRebuild) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  DeltaStats stats;
  DeltaBuilderOptions options;
  options.max_dirty_fraction = 0.25;  // Touching 2 of 4 sets exceeds this.
  DeltaBuilder builder(sim, options, &stats);
  Seed(&builder, testing_inputs::Figure2Input());
  // The seed itself is 100% new, so it already fell back once.
  const uint64_t fallbacks_before = stats.Snapshot().fallbacks_full;

  std::vector<DeltaOp> ops;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kUpsertQuery;
  op.key = Key("black shirt");
  op.set = MakeSet("black shirt", {0, 1, 2, 3}, 2.0);
  ops.push_back(op);
  op.key = Key("nike shirt");
  op.set = MakeSet("nike shirt", {2, 3, 4}, 1.0);
  ops.push_back(op);
  Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(BatchOf(ops));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().fallback_full);
  EXPECT_EQ(outcome.value().sets_rebuilt, outcome.value().sets_total);
  EXPECT_EQ(stats.Snapshot().fallbacks_full, fallbacks_before + 1);
  EXPECT_TRUE(builder.VerifyEquivalence(outcome.value().tree, 0.05).ok());
}

TEST(DeltaBuilder, IncrementalMatchesFreshBuilderCanonically) {
  // Path independence: applying deltas one at a time must land on exactly
  // the tree a fresh builder produces from the final cumulative input.
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  DeltaBuilder incremental(sim);
  Seed(&incremental, testing_inputs::Figure2Input());

  std::vector<DeltaOp> ops;
  DeltaOp op;
  op.kind = DeltaOp::Kind::kUpsertQuery;
  op.key = Key("running shoes");
  op.set = MakeSet("running shoes", {9, 10, 11}, 1.5);
  ops.push_back(op);
  Result<DeltaApplyOutcome> step = incremental.ApplyBatch(BatchOf(ops));
  ASSERT_TRUE(step.ok());

  ops.clear();
  op.kind = DeltaOp::Kind::kRemoveQuery;
  op.key = Key("black adidas shirt");
  ops.push_back(op);
  op.kind = DeltaOp::Kind::kRemoveItem;
  op.item = 5;  // f — delists from "nike shirt" and "long sleeve shirt".
  ops.push_back(op);
  step = incremental.ApplyBatch(BatchOf(ops));
  ASSERT_TRUE(step.ok());

  DeltaBuilder fresh(sim);
  const DeltaApplyOutcome from_scratch =
      Seed(&fresh, incremental.CumulativeInput());
  EXPECT_EQ(DeltaBuilder::CanonicalTreeString(step.value().tree),
            DeltaBuilder::CanonicalTreeString(from_scratch.tree));
}

TEST(DeltaBuilder, ParallelPoolMatchesSerialCanonically) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  OctInput input(40);
  Rng rng(7);
  for (int q = 0; q < 12; ++q) {
    const ItemId base = ItemId(10 * (q % 4));
    std::vector<ItemId> items;
    for (int k = 0; k < 4; ++k) {
      items.push_back(base + ItemId(rng.NextBelow(8)));
    }
    input.Add(ItemSet(items), 1.0 + double(q % 3), "q" + std::to_string(q));
  }

  DeltaBuilder serial(sim);
  const DeltaApplyOutcome serial_outcome = Seed(&serial, input);

  ThreadPool pool(4);
  DeltaBuilderOptions options;
  options.pool = &pool;
  DeltaBuilder parallel(sim, options);
  const DeltaApplyOutcome parallel_outcome = Seed(&parallel, input);

  EXPECT_EQ(DeltaBuilder::CanonicalTreeString(serial_outcome.tree),
            DeltaBuilder::CanonicalTreeString(parallel_outcome.tree));
}

TEST(DeltaBuilder, RandomizedOpStreamStaysEquivalent) {
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  DeltaBuilderOptions options;
  options.max_dirty_fraction = 0.5;
  DeltaBuilder builder(sim, options);
  Rng rng(13);

  std::vector<std::string> labels;
  uint64_t fresh_label = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<DeltaOp> ops;
    const int num_ops = 2 + int(rng.NextBelow(4));
    for (int k = 0; k < num_ops; ++k) {
      const uint64_t dice = rng.NextBelow(10);
      DeltaOp op;
      if (dice < 5 || labels.empty()) {  // New query.
        const std::string label = "q" + std::to_string(fresh_label++);
        labels.push_back(label);
        std::vector<ItemId> items;
        const ItemId base = ItemId(12 * rng.NextBelow(5));
        for (int j = 0; j < 3 + int(rng.NextBelow(4)); ++j) {
          items.push_back(base + ItemId(rng.NextBelow(14)));
        }
        op.kind = DeltaOp::Kind::kUpsertQuery;
        op.key = Key(label);
        op.set = MakeSet(label, items, 1.0 + double(rng.NextBelow(3)));
      } else if (dice < 7) {  // Mutate an existing query's result set.
        const std::string& label = labels[rng.NextBelow(labels.size())];
        std::vector<ItemId> items;
        const ItemId base = ItemId(12 * rng.NextBelow(5));
        for (int j = 0; j < 3 + int(rng.NextBelow(4)); ++j) {
          items.push_back(base + ItemId(rng.NextBelow(14)));
        }
        op.kind = DeltaOp::Kind::kUpsertQuery;
        op.key = Key(label);
        op.set = MakeSet(label, items);
      } else if (dice < 9) {  // Remove a query.
        op.kind = DeltaOp::Kind::kRemoveQuery;
        op.key = Key(labels[rng.NextBelow(labels.size())]);
      } else {  // Catalog churn.
        op.kind = DeltaOp::Kind::kRemoveItem;
        op.item = ItemId(rng.NextBelow(70));
      }
      ops.push_back(std::move(op));
    }
    Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(BatchOf(ops));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const Status equivalent =
        builder.VerifyEquivalence(outcome.value().tree, 0.1);
    EXPECT_TRUE(equivalent.ok()) << "round " << round << ": "
                                 << equivalent.ToString();
  }
}

/// FNV-1a of `text`, folded into `digest`.
uint64_t DigestAdd(uint64_t digest, const std::string& text) {
  for (unsigned char ch : text) {
    digest ^= ch;
    digest *= 0x100000001B3ULL;
  }
  return digest;
}

// Pinned canonical trees over a seeded op stream whose items are sparse,
// high global ids: component builds run on dense local item ids, and the
// trees they splice, rebuild and batch-build must not change because of it.
TEST(DeltaBuilder, OpStreamTreesMatchPinnedDigests) {
  struct Pinned {
    DeltaBuilderOptions::Algorithm algorithm;
    uint64_t digest;
  };
  const Pinned kPinned[] = {
      {DeltaBuilderOptions::Algorithm::kCtcr, 0xfe028bf24c9de556ULL},
      {DeltaBuilderOptions::Algorithm::kCct, 0x50cda319fabace65ULL},
  };
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  for (const Pinned& pinned : kPinned) {
    DeltaBuilderOptions options;
    options.algorithm = pinned.algorithm;
    options.max_dirty_fraction = 0.5;
    options.universe_floor = 9000;
    DeltaBuilder builder(sim, options);
    Rng rng(29);
    auto random_items = [&rng] {
      // Six item clusters, far apart, each a comb of every third id.
      const ItemId base = ItemId(1000 * rng.NextBelow(6) + 37);
      std::vector<ItemId> items;
      for (int j = 0; j < 3 + int(rng.NextBelow(6)); ++j) {
        items.push_back(base + ItemId(3 * rng.NextBelow(12)));
      }
      return items;
    };
    std::vector<std::string> labels;
    uint64_t digest = 0xCBF29CE484222325ULL;
    for (int round = 0; round < 12; ++round) {
      std::vector<DeltaOp> ops;
      const int num_ops = round == 0 ? 24 : 1 + int(rng.NextBelow(4));
      for (int k = 0; k < num_ops; ++k) {
        const uint64_t dice = rng.NextBelow(10);
        DeltaOp op;
        if (dice < 6 || labels.empty()) {  // New query.
          const std::string label = "q" + std::to_string(labels.size());
          labels.push_back(label);
          op.kind = DeltaOp::Kind::kUpsertQuery;
          op.key = Key(label);
          op.set = MakeSet(label, random_items(),
                           1.0 + double(rng.NextBelow(3)));
        } else if (dice < 8) {  // Re-resolve an existing query.
          const std::string& label = labels[rng.NextBelow(labels.size())];
          op.kind = DeltaOp::Kind::kUpsertQuery;
          op.key = Key(label);
          op.set = MakeSet(label, random_items());
        } else if (dice < 9) {
          op.kind = DeltaOp::Kind::kRemoveQuery;
          op.key = Key(labels[rng.NextBelow(labels.size())]);
        } else {
          op.kind = DeltaOp::Kind::kRemoveItem;
          op.item = ItemId(1000 * rng.NextBelow(6) + 37 +
                           3 * rng.NextBelow(12));
        }
        ops.push_back(std::move(op));
      }
      Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(BatchOf(ops));
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      digest = DigestAdd(digest,
                         DeltaBuilder::CanonicalTreeString(outcome.value().tree));
    }
    Result<DeltaApplyOutcome> full = builder.FullRebuild();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    digest = DigestAdd(digest,
                       DeltaBuilder::CanonicalTreeString(full.value().tree));
    digest = DigestAdd(digest,
                       DeltaBuilder::CanonicalTreeString(builder.PlainTree()));
    EXPECT_EQ(digest, pinned.digest) << std::hex << "0x" << digest;
  }
}

TEST(WorkingSet, RemoveItemStormScrubsEveryPosting) {
  // Catalog-side churn storm: mostly RemoveItem ops against a small item
  // universe, interleaved with enough upserts to keep refilling it. After
  // every round the postings index must agree exactly with a from-scratch
  // oracle scan of the alive slots — no stale entries for delisted items,
  // no missing entries for re-added ones.
  constexpr ItemId kUniverse = 40;
  WorkingSet ws;
  Rng rng(20260808);
  uint64_t fresh_label = 0;
  std::vector<std::string> labels;
  for (int round = 0; round < 30; ++round) {
    std::vector<DeltaOp> ops;
    const int num_ops = 3 + int(rng.NextBelow(5));
    for (int k = 0; k < num_ops; ++k) {
      DeltaOp op;
      if (labels.empty() || rng.NextBelow(10) < 3) {  // Refill.
        const std::string label = "s" + std::to_string(fresh_label++);
        labels.push_back(label);
        std::vector<ItemId> items;
        for (int j = 0; j < 2 + int(rng.NextBelow(5)); ++j) {
          items.push_back(ItemId(rng.NextBelow(kUniverse)));
        }
        op = {DeltaOp::Kind::kUpsertQuery, Key(label), MakeSet(label, items),
              0, 0};
      } else {  // Storm: delist a random item, duplicates welcome.
        op = {DeltaOp::Kind::kRemoveItem, 0, CandidateSet{},
              ItemId(rng.NextBelow(kUniverse)), 0};
      }
      ops.push_back(std::move(op));
    }
    ws.ApplyBatch(BatchOf(std::move(ops)));

    // Oracle: postings rebuilt by brute force from the alive slots.
    size_t alive = 0;
    std::vector<std::vector<uint32_t>> expected(ws.universe_size());
    for (uint32_t slot = 0; slot < ws.num_slots(); ++slot) {
      if (!ws.alive(slot)) continue;
      ++alive;
      ASSERT_FALSE(ws.set(slot).items.empty())
          << "slot " << slot << " alive but empty after round " << round;
      for (ItemId item : ws.set(slot).items) {
        expected[item].push_back(slot);
      }
    }
    EXPECT_EQ(ws.num_alive(), alive);
    for (ItemId item = 0; item < ItemId(ws.universe_size()); ++item) {
      EXPECT_EQ(ws.Postings(item), expected[item])
          << "postings for item " << item << " diverge after round " << round;
    }
  }
}

TEST(DeltaBuilder, RemoveItemStormMatchesBatchOracle) {
  // Remove-heavy randomized stream: the incremental tree after each storm
  // round must stay equivalent to a plain batch rebuild of the same
  // cumulative input (VerifyEquivalence = canonical agreement with a fresh
  // sharded rebuild + score within epsilon of the batch tree), even while
  // RemoveItem ops empty out and resurrect whole candidate sets.
  const Similarity sim(Variant::kJaccardThreshold, 0.6);
  DeltaBuilderOptions options;
  options.max_dirty_fraction = 0.6;
  DeltaBuilder builder(sim, options);
  Rng rng(77);

  std::vector<std::string> labels;
  uint64_t fresh_label = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<DeltaOp> ops;
    const int num_ops = 3 + int(rng.NextBelow(4));
    for (int k = 0; k < num_ops; ++k) {
      DeltaOp op;
      const uint64_t dice = rng.NextBelow(10);
      if (labels.empty() || dice < 3) {  // Keep some supply of sets.
        const std::string label = "q" + std::to_string(fresh_label++);
        labels.push_back(label);
        std::vector<ItemId> items;
        const ItemId base = ItemId(10 * rng.NextBelow(4));
        for (int j = 0; j < 3 + int(rng.NextBelow(4)); ++j) {
          items.push_back(base + ItemId(rng.NextBelow(12)));
        }
        op.kind = DeltaOp::Kind::kUpsertQuery;
        op.key = Key(label);
        op.set = MakeSet(label, items, 1.0 + double(rng.NextBelow(3)));
      } else {  // Remove-heavy: 70% of ops are catalog churn.
        op.kind = DeltaOp::Kind::kRemoveItem;
        op.item = ItemId(rng.NextBelow(52));
      }
      ops.push_back(std::move(op));
    }
    Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(BatchOf(ops));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const Status equivalent =
        builder.VerifyEquivalence(outcome.value().tree, 0.1);
    EXPECT_TRUE(equivalent.ok())
        << "round " << round << ": " << equivalent.ToString();
    // The spliced tree must also be a valid model of exactly the surviving
    // input — no category may reference a delisted item.
    EXPECT_TRUE(
        outcome.value().tree.ValidateModel(builder.CumulativeInput()).ok());
  }
}

TEST(DeltaBuilder, EmptyWorkingSetSplicesAnEmptyValidTree) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  DeltaBuilder builder(sim);
  Result<DeltaApplyOutcome> outcome = builder.ApplyBatch(DeltaBatch{});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().total_components, 0u);
  EXPECT_TRUE(
      outcome.value().tree.ValidateModel(builder.CumulativeInput()).ok());
}

TEST(DeltaBuilder, CacheTtlPrunesStaleComponents) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  DeltaBuilderOptions options;
  options.cache_ttl_batches = 2;
  options.max_dirty_fraction = 1.0;
  DeltaBuilder builder(sim, options);
  Seed(&builder, testing_inputs::Figure2Input());
  const size_t seeded = builder.cache_size();
  EXPECT_GT(seeded, 0u);

  // Each batch rewrites every set, so every prior signature goes stale and
  // the TTL reaps it after two batches.
  for (int round = 0; round < 4; ++round) {
    std::vector<DeltaOp> ops;
    const OctInput current = builder.CumulativeInput();
    for (SetId q = 0; q < current.num_sets(); ++q) {
      DeltaOp op;
      op.kind = DeltaOp::Kind::kUpsertQuery;
      op.key = Key(current.set(q).label);
      CandidateSet changed = current.set(q);
      changed.items.Insert(ItemId(20 + round));
      op.set = std::move(changed);
      ops.push_back(std::move(op));
    }
    ASSERT_TRUE(builder.ApplyBatch(BatchOf(ops)).ok());
  }
  // Stale entries from four rewrites would dwarf `seeded` if never pruned.
  EXPECT_LE(builder.cache_size(), seeded + 2);
}

// ---------------------------------------------------------- DeltaMaintainer

TEST(DeltaMaintainer, PumpOncePublishesSplicedTreeWithDeltaNote) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  serve::TreeStore store;
  serve::ServeStats stats;
  DeltaMaintainer maintainer(&store, &stats, sim);

  EXPECT_EQ(maintainer.PumpOnce().value(), 0u);  // Nothing pending.

  const OctInput input = testing_inputs::Figure2Input();
  for (SetId q = 0; q < input.num_sets(); ++q) {
    maintainer.UpsertQuery(input.set(q).label, input.set(q));
  }
  Result<serve::TreeVersion> version = maintainer.PumpOnce();
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(version.value(), 1u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->note().rfind("delta", 0), 0u);
  EXPECT_EQ(stats.Snapshot().publishes, 1u);

  // A small follow-up delta publishes a new version incrementally.
  maintainer.RemoveQuery("black adidas shirt");
  version = maintainer.PumpOnce();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 2u);
  EXPECT_EQ(maintainer.stats().Snapshot().batches, 2u);
  EXPECT_EQ(maintainer.last_outcome().touched_slots, 1u);
}

TEST(DeltaMaintainer, VerifyEpsilonAuditsEveryPump) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  serve::TreeStore store;
  DeltaMaintainerOptions options;
  options.verify_epsilon = 0.1;
  DeltaMaintainer maintainer(&store, nullptr, sim, options);
  const OctInput input = testing_inputs::Figure2Input();
  for (SetId q = 0; q < input.num_sets(); ++q) {
    maintainer.UpsertQuery(input.set(q).label, input.set(q));
  }
  ASSERT_TRUE(maintainer.PumpOnce().ok());
  EXPECT_GE(maintainer.stats().Snapshot().equivalence_checks, 1u);
  EXPECT_EQ(maintainer.stats().Snapshot().equivalence_failures, 0u);
}

TEST(DeltaMaintainer, SchedulerRoutesRebuildsThroughDeltaPath) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  serve::TreeStore store;
  serve::ServeStats stats;
  DeltaMaintainer maintainer(&store, nullptr, sim);

  data::Dataset empty_dataset;
  serve::RebuildPolicy policy;
  policy.builder = &maintainer;
  ThreadPool pool(2);
  serve::RebuildScheduler scheduler(&store, &stats, &empty_dataset, sim,
                                    policy, &pool);

  // Bootstrap: everything is new, so the delta path's first candidate is a
  // full resolve — published by the scheduler with the maintainer's note.
  const serve::RebuildOutcome first =
      scheduler.RebuildNow(testing_inputs::Figure2Input());
  ASSERT_TRUE(first.published) << first.reason;
  EXPECT_EQ(store.Current()->note().rfind("delta", 0), 0u);
  EXPECT_EQ(maintainer.stats().Snapshot().batches, 1u);

  // Drifted truth: one query's result set changed, one query is new. The
  // maintainer diffs, so only the touched region re-resolves.
  OctInput drifted(testing_inputs::Figure2Input());
  drifted.Add(ItemSet({3, 4, 5}), 2.0, "summer shirt");
  const serve::RebuildOutcome second = scheduler.RebuildNow(drifted);
  EXPECT_EQ(maintainer.stats().Snapshot().batches, 2u);
  if (second.published) {
    EXPECT_EQ(store.CurrentVersion(), 2u);
  }
  // Either way the maintainer's working set tracked the new truth.
  EXPECT_EQ(maintainer.builder().working_set().num_alive(),
            drifted.num_sets());
}

TEST(DeltaMaintainer, FailedSpliceRecoversOnRepublish) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  serve::TreeStore store;
  DeltaMaintainer maintainer(&store, nullptr, sim);
  const OctInput input = testing_inputs::Figure2Input();
  for (SetId q = 0; q < input.num_sets(); ++q) {
    maintainer.UpsertQuery(input.set(q).label, input.set(q));
  }
  ASSERT_TRUE(maintainer.PumpOnce().ok());

  // Arm the splice failpoint: the pump absorbs the ops, then dies before
  // producing a tree — nothing publishes, readers keep v1.
  auto* failpoints = fault::FailPointRegistry::Default();
  ASSERT_TRUE(failpoints->Arm("delta.splice", "error").ok());
  maintainer.RemoveQuery("nike shirt");
  const Result<serve::TreeVersion> failed = maintainer.PumpOnce();
  failpoints->DisarmAll();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(store.CurrentVersion(), 1u);

  // Recovery: the working set already holds the op; Republish re-splices
  // (clean components straight from cache) and publishes v2 ...
  const Result<serve::TreeVersion> recovered = maintainer.Republish();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value(), 2u);

  // ... and the recovered tree is exactly what a from-scratch build of the
  // same cumulative input produces.
  DeltaBuilder fresh(sim);
  const DeltaApplyOutcome expected =
      Seed(&fresh, maintainer.builder().CumulativeInput());
  EXPECT_EQ(DeltaBuilder::CanonicalTreeString(store.Current()->tree()),
            DeltaBuilder::CanonicalTreeString(expected.tree));
}

TEST(DeltaMaintainer, FullRebuildPublishesAndResetsCache) {
  const Similarity sim(Variant::kJaccardThreshold, 0.7);
  serve::TreeStore store;
  DeltaMaintainer maintainer(&store, nullptr, sim);
  const OctInput input = testing_inputs::Figure2Input();
  for (SetId q = 0; q < input.num_sets(); ++q) {
    maintainer.UpsertQuery(input.set(q).label, input.set(q));
  }
  ASSERT_TRUE(maintainer.PumpOnce().ok());
  const Result<serve::TreeVersion> version = maintainer.PublishFullRebuild();
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 2u);
  EXPECT_EQ(store.Current()->note().rfind("delta", 0), 0u);
  // Both trees come from the same cumulative input: identical structure.
  EXPECT_EQ(
      DeltaBuilder::CanonicalTreeString(store.Version(1)->tree()),
      DeltaBuilder::CanonicalTreeString(store.Version(2)->tree()));
}

}  // namespace
}  // namespace delta
}  // namespace oct
