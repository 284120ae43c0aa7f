// oct::store tests: nested-set encoding round trips, version-log
// durability (torn writes, bit rot, a full disk, manifest corruption,
// crash recovery), the replication/failover policy, and a fork + SIGKILL
// crash harness that asserts the parent-side recovery invariant.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/category_tree.h"
#include "core/serialization.h"
#include "crash_harness.h"
#include "fault/failpoint.h"
#include "obs/export.h"
#include "serve/exposition.h"
#include "serve/tree_store.h"
#include "store/nested_set.h"
#include "store/replica.h"
#include "store/version_log.h"
#include "util/rng.h"


namespace oct {
namespace store {
namespace {

using fault::FailPointRegistry;
using serve::TreeStore;

std::string TestDir(const char* prefix) {
  return ::testing::TempDir() + prefix +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

/// Deterministic tree whose content encodes `round`, so recovery checks can
/// tell exactly which version they got back.
CategoryTree TreeForRound(uint32_t round) {
  CategoryTree tree;
  const NodeId marker = tree.AddCategory(tree.root(), "round");
  tree.AssignItem(marker, round);
  const NodeId shoes = tree.AddCategory(tree.root(), "shoes", 0);
  const NodeId running = tree.AddCategory(shoes, "running", 1);
  tree.AssignItem(shoes, 100);
  tree.AssignItem(running, 101);
  for (uint32_t i = 0; i < round; ++i) {
    const NodeId extra =
        tree.AddCategory(shoes, "gen" + std::to_string(i), 2 + i);
    tree.AssignItem(extra, 200 + i);
  }
  return tree;
}

std::string Canon(const CategoryTree& tree) { return SerializeTree(tree); }

// ---------------------------------------------------------------------------
// Nested-set encoding.
// ---------------------------------------------------------------------------

TEST(NestedSetTest, RoundTripsSimpleTree) {
  const CategoryTree tree = TreeForRound(3);
  const NestedSetEncoding enc = EncodeNestedSet(tree);
  ASSERT_TRUE(ValidateNestedSet(enc).ok());
  EXPECT_EQ(enc.num_nodes(), tree.NumCategories());
  auto decoded = DecodeNestedSet(enc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(Canon(decoded.value()), Canon(tree));
}

TEST(NestedSetTest, RoundTripsAfterMoveNodeBreaksIdOrder) {
  // MoveNode can leave a child with a *smaller* id than its parent and
  // interleave subtrees in id space; the encoder must renumber into
  // pre-order rather than trust insertion ids.
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "a");
  const NodeId b = tree.AddCategory(tree.root(), "b");
  const NodeId c = tree.AddCategory(b, "c");
  const NodeId d = tree.AddCategory(a, "d");
  tree.AssignItem(c, 1);
  tree.AssignItem(d, 2);
  tree.MoveNode(a, c);                 // a (id 1) now sits under c (id 3).
  tree.RemoveNodeKeepChildren(d);      // And leave a tombstone behind.
  ASSERT_TRUE(tree.ValidateStructure().ok());

  const NestedSetEncoding enc = EncodeNestedSet(tree);
  ASSERT_TRUE(ValidateNestedSet(enc).ok());
  auto decoded = DecodeNestedSet(enc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(Canon(decoded.value()), Canon(tree));
}

TEST(NestedSetTest, SubtreeQueriesMatchTreeOracle) {
  Rng rng(20260808);
  CategoryTree tree;
  std::vector<NodeId> nodes{tree.root()};
  for (int i = 0; i < 60; ++i) {
    const NodeId parent = nodes[rng.NextBelow(nodes.size())];
    const NodeId child = tree.AddCategory(parent, "n" + std::to_string(i));
    tree.AssignItem(child, 1000 + static_cast<ItemId>(rng.NextBelow(500)));
    nodes.push_back(child);
  }
  // A few moves so ids stop matching pre-order.
  for (int i = 0; i < 8; ++i) {
    const NodeId n = nodes[1 + rng.NextBelow(nodes.size() - 1)];
    const NodeId p = nodes[rng.NextBelow(nodes.size())];
    if (n != p && !tree.IsAncestor(n, p) && tree.node(n).parent != p) {
      tree.MoveNode(n, p);
    }
  }
  ASSERT_TRUE(tree.ValidateStructure().ok());

  const std::vector<NodeId> preorder = tree.PreOrder();
  const NestedSetEncoding enc = EncodeNestedSet(tree);
  ASSERT_TRUE(ValidateNestedSet(enc).ok());
  ASSERT_EQ(enc.num_nodes(), preorder.size());

  for (NodeId i = 0; i < enc.num_nodes(); ++i) {
    // Subtree span size == oracle subtree size.
    size_t size_oracle = 1;
    for (NodeId j = 0; j < enc.num_nodes(); ++j) {
      if (tree.IsAncestor(preorder[i], preorder[j])) ++size_oracle;
    }
    const auto [first, last] = enc.SubtreeSpan(i);
    EXPECT_EQ(first, i);
    EXPECT_EQ(last - first, size_oracle);
    for (NodeId j = 0; j < enc.num_nodes(); ++j) {
      EXPECT_EQ(enc.IsAncestor(i, j),
                tree.IsAncestor(preorder[i], preorder[j]));
    }
  }
}

TEST(NestedSetTest, SerializeParseRoundTrips) {
  CategoryTree tree = TreeForRound(2);
  tree.mutable_node(1).label = "label with spaces";  // Exercise escaping.
  const NestedSetEncoding enc = EncodeNestedSet(tree);
  const std::string text = SerializeNestedSet(enc);
  auto parsed = ParseNestedSet(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->lft, enc.lft);
  EXPECT_EQ(parsed->rgt, enc.rgt);
  EXPECT_EQ(parsed->depth, enc.depth);
  EXPECT_EQ(parsed->parent, enc.parent);
  EXPECT_EQ(parsed->label, enc.label);
  EXPECT_EQ(parsed->item_offsets, enc.item_offsets);
  EXPECT_EQ(parsed->items, enc.items);
  auto decoded = DecodeNestedSet(parsed.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(Canon(decoded.value()), Canon(tree));
}

TEST(NestedSetTest, ParseRejectsCorruption) {
  const std::string text = SerializeNestedSet(EncodeNestedSet(TreeForRound(1)));
  // Truncation.
  EXPECT_EQ(ParseNestedSet(text.substr(0, text.size() / 2)).status().code(),
            StatusCode::kDataLoss);
  // Bad magic.
  EXPECT_EQ(ParseNestedSet("octstore-nested v9\n").status().code(),
            StatusCode::kDataLoss);
}

TEST(NestedSetTest, ValidateCatchesBrokenIntervals) {
  NestedSetEncoding enc = EncodeNestedSet(TreeForRound(1));
  ASSERT_TRUE(ValidateNestedSet(enc).ok());
  NestedSetEncoding broken = enc;
  broken.rgt[1] = broken.rgt[0] + 5;  // Child interval escapes the root's.
  EXPECT_EQ(ValidateNestedSet(broken).code(), StatusCode::kDataLoss);
  broken = enc;
  broken.depth[1] = 7;
  EXPECT_EQ(ValidateNestedSet(broken).code(), StatusCode::kDataLoss);
  broken = enc;
  broken.item_offsets.back() += 3;
  EXPECT_EQ(ValidateNestedSet(broken).code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Version log.
// ---------------------------------------------------------------------------

class VersionLogTest : public ::testing::Test {
 protected:
  VersionLogTest() {
    FailPointRegistry::Default()->DisarmAll();
    dir_ = TestDir("oct_vlog_");
    std::filesystem::remove_all(dir_);
  }
  ~VersionLogTest() override {
    FailPointRegistry::Default()->DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_F(VersionLogTest, CommitReopenAndPointInTimeRead) {
  {
    auto log = VersionLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    for (uint32_t v = 1; v <= 3; ++v) {
      ASSERT_TRUE(
          (*log)->Commit(TreeForRound(v), v, "round " + std::to_string(v))
              .ok());
    }
    EXPECT_EQ((*log)->LatestVersion(), 3u);
  }
  auto reopened = VersionLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->LatestVersion(), 3u);
  EXPECT_EQ((*reopened)->open_report().entries, 3u);
  EXPECT_EQ((*reopened)->open_report().torn_records_dropped, 0u);
  EXPECT_FALSE((*reopened)->open_report().manifest_rebuilt);

  // Point-in-time rollback read.
  auto v2 = (*reopened)->OpenAt(2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(Canon(v2.value()), Canon(TreeForRound(2)));
  EXPECT_EQ((*reopened)->OpenAt(9).status().code(), StatusCode::kNotFound);

  // Lineage chains version -> parent.
  const std::vector<LogEntry> lineage = (*reopened)->Lineage();
  ASSERT_EQ(lineage.size(), 3u);
  EXPECT_EQ(lineage[0].parent, 0u);
  EXPECT_EQ(lineage[1].parent, 1u);
  EXPECT_EQ(lineage[2].parent, 2u);
  EXPECT_EQ(lineage[2].note, "round 3");
}

TEST_F(VersionLogTest, TornSegmentTailIsTruncatedOnOpen) {
  {
    auto log = VersionLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Commit(TreeForRound(1), 1).ok());
    ASSERT_TRUE((*log)->Commit(TreeForRound(2), 2).ok());
  }
  // Simulate a torn append: half a record, no manifest update.
  const std::string seg = dir_ + "/seg-000001.log";
  auto contents = ReadFile(seg);
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(obs::WriteStringToFile(
                  seg, contents.value() + "record 3 2 9999 00000000 x\ngarbage")
                  .ok());

  auto reopened = VersionLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->LatestVersion(), 2u);
  EXPECT_GE((*reopened)->open_report().torn_records_dropped, 1u);
  EXPECT_EQ(Canon((*reopened)->OpenLatest().value()),
            Canon(TreeForRound(2)));
  // The truncation is durable: a third open is clean.
  auto again = VersionLog::Open(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->open_report().torn_records_dropped, 0u);
}

TEST_F(VersionLogTest, FailedManifestCommitLeavesLogAtPreviousVersion) {
  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Commit(TreeForRound(1), 1).ok());
  ASSERT_TRUE(FailPointRegistry::Default()
                  ->Arm("store.manifest.commit", "error:1:x1")
                  .ok());
  EXPECT_FALSE((*log)->Commit(TreeForRound(2), 2).ok());
  EXPECT_EQ((*log)->LatestVersion(), 1u);
  // The same in-process log recovers: the retried commit must not collide
  // with the orphan bytes the failed attempt left in the segment.
  ASSERT_TRUE((*log)->Commit(TreeForRound(2), 2).ok());
  EXPECT_EQ((*log)->LatestVersion(), 2u);
  EXPECT_EQ(Canon((*log)->OpenAt(2).value()), Canon(TreeForRound(2)));

  // And a fresh process sees exactly the committed chain.
  auto reopened = VersionLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->LatestVersion(), 2u);
  EXPECT_EQ(Canon((*reopened)->OpenAt(2).value()), Canon(TreeForRound(2)));
}

TEST_F(VersionLogTest, FullDiskManifestWriteFailsTheCommit) {
  // /dev/full fails every write with ENOSPC. A manifest write that fails
  // only at its final flush must fail the commit, never rename an empty
  // MANIFEST into place.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->Commit(TreeForRound(1), 1).ok());
  std::filesystem::create_symlink("/dev/full", dir_ + "/MANIFEST.tmp");
  EXPECT_FALSE((*log)->Commit(TreeForRound(2), 2).ok());
  EXPECT_EQ((*log)->LatestVersion(), 1u);

  // The failed write removed the temp name, so a retry lands.
  ASSERT_TRUE((*log)->Commit(TreeForRound(2), 2).ok());
  auto reopened = VersionLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->open_report().manifest_rebuilt);
  EXPECT_EQ((*reopened)->LatestVersion(), 2u);
  EXPECT_EQ(Canon((*reopened)->OpenLatest().value()), Canon(TreeForRound(2)));
}

TEST_F(VersionLogTest, NewestRecordBitRotFallsBackToPreviousVersion) {
  {
    auto log = VersionLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Commit(TreeForRound(1), 1).ok());
    ASSERT_TRUE((*log)->Commit(TreeForRound(2), 2).ok());
  }
  // Flip one payload byte of v2's record; the manifest stays intact, so
  // only the record's CRC can catch it.
  const std::string seg = dir_ + "/seg-000001.log";
  std::string bytes = ReadFile(seg).value();
  bytes[bytes.size() - 2] ^= 0x5A;
  ASSERT_TRUE(obs::WriteStringToFile(seg, bytes).ok());

  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->open_report().records_quarantined, 1u);
  EXPECT_EQ((*log)->LatestVersion(), 1u);
  TreeStore tree_store;
  auto report = WarmStart(log->get(), &tree_store);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->log_version, 1u);
  ASSERT_NE(tree_store.Current(), nullptr);
  EXPECT_EQ(Canon(tree_store.Current()->tree()), Canon(TreeForRound(1)));
}

TEST_F(VersionLogTest, CorruptManifestIsQuarantinedAndRebuilt) {
  {
    auto log = VersionLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    for (uint32_t v = 1; v <= 3; ++v) {
      ASSERT_TRUE((*log)->Commit(TreeForRound(v), v).ok());
    }
  }
  const std::string manifest = dir_ + "/MANIFEST";
  auto contents = ReadFile(manifest);
  ASSERT_TRUE(contents.ok());
  std::string bytes = std::move(contents).value();
  bytes[bytes.size() / 2] ^= 0x42;
  ASSERT_TRUE(obs::WriteStringToFile(manifest, bytes).ok());

  auto reopened = VersionLog::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->open_report().manifest_rebuilt);
  EXPECT_EQ((*reopened)->LatestVersion(), 3u);
  EXPECT_TRUE(std::filesystem::exists(manifest + ".corrupt"));
  EXPECT_EQ(Canon((*reopened)->OpenLatest().value()),
            Canon(TreeForRound(3)));
}

TEST_F(VersionLogTest, SegmentsRollAndCompactKeepsNewest) {
  VersionLogOptions options;
  options.segment_bytes = 512;  // Force rolls.
  options.compact_keep = 2;
  auto log = VersionLog::Open(dir_, options);
  ASSERT_TRUE(log.ok());
  for (uint32_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE((*log)->Commit(TreeForRound(v), v).ok());
  }
  const std::vector<LogEntry> before = (*log)->Lineage();
  EXPECT_GT(before.back().segment, before.front().segment);

  ASSERT_TRUE((*log)->Compact().ok());
  EXPECT_EQ((*log)->Lineage().size(), 2u);
  EXPECT_EQ((*log)->LatestVersion(), 6u);
  EXPECT_EQ((*log)->OpenAt(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Canon((*log)->OpenAt(5).value()), Canon(TreeForRound(5)));

  // Compaction survives reopen, and new commits land after it.
  auto reopened = VersionLog::Open(dir_, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->LatestVersion(), 6u);
  ASSERT_TRUE((*reopened)->Commit(TreeForRound(7), 7).ok());
  EXPECT_EQ(Canon((*reopened)->OpenLatest().value()),
            Canon(TreeForRound(7)));
}

TEST_F(VersionLogTest, InstallRecordEnforcesLineage) {
  auto primary = VersionLog::Open(dir_ + "/primary");
  ASSERT_TRUE(primary.ok());
  for (uint32_t v = 1; v <= 3; ++v) {
    ASSERT_TRUE((*primary)->Commit(TreeForRound(v), v).ok());
  }
  auto replica = VersionLog::Open(dir_ + "/replica");
  ASSERT_TRUE(replica.ok());

  // Seed + in-order installs succeed; re-install is idempotent.
  for (uint32_t v = 1; v <= 2; ++v) {
    auto record = (*primary)->RecordBytes(v);
    ASSERT_TRUE(record.ok());
    EXPECT_TRUE((*replica)->InstallRecord(record.value()).ok());
  }
  EXPECT_TRUE(
      (*replica)->InstallRecord((*primary)->RecordBytes(2).value()).ok());
  EXPECT_EQ((*replica)->LatestVersion(), 2u);

  // Gap: a fresh log at v1 refusing v3 (parent 2 missing) is OutOfRange.
  auto lagging = VersionLog::Open(dir_ + "/lagging");
  ASSERT_TRUE(lagging.ok());
  ASSERT_TRUE(
      (*lagging)->InstallRecord((*primary)->RecordBytes(1).value()).ok());
  EXPECT_EQ(
      (*lagging)->InstallRecord((*primary)->RecordBytes(3).value()).code(),
      StatusCode::kOutOfRange);

  // Divergence: same version, different payload.
  auto forked = VersionLog::Open(dir_ + "/forked");
  ASSERT_TRUE(forked.ok());
  ASSERT_TRUE(
      (*forked)->InstallRecord((*primary)->RecordBytes(1).value()).ok());
  ASSERT_TRUE((*forked)->Commit(TreeForRound(9), 2).ok());  // Fork at v2.
  EXPECT_EQ(
      (*forked)->InstallRecord((*primary)->RecordBytes(2).value()).code(),
      StatusCode::kDataLoss);

  // Tampered bytes never install.
  std::string tampered = (*primary)->RecordBytes(3).value();
  tampered[tampered.size() - 2] ^= 0x10;
  EXPECT_EQ((*replica)->InstallRecord(tampered).code(),
            StatusCode::kDataLoss);
}

TEST_F(VersionLogTest, WarmStartServesLatestAndHooksFuturePublishes) {
  {
    auto log = VersionLog::Open(dir_);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Commit(TreeForRound(1), 1).ok());
    ASSERT_TRUE((*log)->Commit(TreeForRound(2), 2).ok());
  }
  // "Process restart": fresh log handle, fresh TreeStore.
  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  TreeStore tree_store;
  auto report = WarmStart(log->get(), &tree_store);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->log_version, 2u);
  EXPECT_EQ(report->published_version, 1u);
  ASSERT_NE(tree_store.Current(), nullptr);
  EXPECT_EQ(Canon(tree_store.Current()->tree()), Canon(TreeForRound(2)));

  // Every subsequent publish commits to the log under an ascending log
  // version (the hook bridges the store's restarted numbering).
  tree_store.Publish(TreeForRound(3), "post-restart");
  EXPECT_EQ((*log)->LatestVersion(), 3u);
  EXPECT_EQ(Canon((*log)->OpenLatest().value()), Canon(TreeForRound(3)));
  EXPECT_EQ((*log)->LatestNote(), "post-restart");

  // A second warm start in another "process" sees the hooked commit.
  auto log2 = VersionLog::Open(dir_);
  ASSERT_TRUE(log2.ok());
  TreeStore store2;
  auto report2 = WarmStart(log2->get(), &store2);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->log_version, 3u);
  EXPECT_EQ(Canon(store2.Current()->tree()), Canon(TreeForRound(3)));
}

// ---------------------------------------------------------------------------
// Replication + failover.
// ---------------------------------------------------------------------------

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest() {
    FailPointRegistry::Default()->DisarmAll();
    dir_ = TestDir("oct_repl_");
    std::filesystem::remove_all(dir_);
    auto primary = VersionLog::Open(dir_ + "/primary");
    EXPECT_TRUE(primary.ok());
    primary_ = std::move(primary).value();
  }
  ~ReplicaTest() override {
    FailPointRegistry::Default()->DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Replica* AddReplica(ReplicaSet* set, const std::string& name) {
    auto replica = Replica::Open(name, dir_ + "/" + name);
    EXPECT_TRUE(replica.ok());
    return set->AddReplica(std::move(replica).value());
  }

  std::string dir_;
  std::unique_ptr<VersionLog> primary_;
};

TEST_F(ReplicaTest, ShipCommittedKeepsReplicasCurrent) {
  ReplicaSet set(primary_.get());
  Replica* r1 = AddReplica(&set, "r1");
  Replica* r2 = AddReplica(&set, "r2");
  for (uint32_t v = 1; v <= 3; ++v) {
    ASSERT_TRUE(primary_->Commit(TreeForRound(v), v).ok());
    ASSERT_TRUE(set.ShipCommitted(v).ok());
  }
  for (Replica* r : {r1, r2}) {
    EXPECT_EQ(r->state(), ReplicaState::kHealthy);
    EXPECT_EQ(r->LatestVersion(), 3u);
    ASSERT_NE(r->tree_store()->Current(), nullptr);
    EXPECT_EQ(Canon(r->tree_store()->Current()->tree()),
              Canon(TreeForRound(3)));
  }
  for (const ReplicaStatus& status : set.Statuses()) {
    EXPECT_EQ(status.lag, 0u);
  }
}

TEST_F(ReplicaTest, DroppedShipLagsThenCatchesUp) {
  ReplicaSet set(primary_.get());
  Replica* r1 = AddReplica(&set, "r1");
  ASSERT_TRUE(primary_->Commit(TreeForRound(1), 1).ok());
  // The transport drops exactly one ship; r1 misses v1.
  ASSERT_TRUE(FailPointRegistry::Default()->Arm("repl.ship", "error:1:x1").ok());
  ASSERT_TRUE(set.ShipCommitted(1).ok());
  EXPECT_EQ(r1->LatestVersion(), 0u);

  // The next ship fetches the missed parent first, then installs v2.
  ASSERT_TRUE(primary_->Commit(TreeForRound(2), 2).ok());
  ASSERT_TRUE(set.ShipCommitted(2).ok());
  EXPECT_EQ(r1->state(), ReplicaState::kHealthy);
  EXPECT_EQ(r1->LatestVersion(), 2u);
  EXPECT_EQ(Canon(r1->tree_store()->Current()->tree()),
            Canon(TreeForRound(2)));
}

TEST_F(ReplicaTest, DivergentReplicaIsQuarantinedThenReSeeded) {
  ReplicaSet set(primary_.get());
  Replica* r1 = AddReplica(&set, "r1");
  ASSERT_TRUE(primary_->Commit(TreeForRound(1), 1).ok());
  ASSERT_TRUE(set.ShipCommitted(1).ok());

  // The replica's log forks: it grows a v2 the primary never produced.
  ASSERT_TRUE(const_cast<VersionLog*>(r1->log())
                  ->Commit(TreeForRound(8), 2, "fork")
                  .ok());
  ASSERT_TRUE(primary_->Commit(TreeForRound(2), 2).ok());
  (void)set.ShipCommitted(2);  // Divergence detected -> quarantine.
  EXPECT_EQ(r1->state(), ReplicaState::kQuarantined);
  // Quarantined replicas reject further installs and are not promotable.
  EXPECT_EQ(r1->Install("whatever").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(set.PromoteBest().status().code(), StatusCode::kNotFound);

  // Re-seed wipes the fork and restores the primary lineage.
  ASSERT_TRUE(set.ReSeedQuarantined().ok());
  EXPECT_EQ(r1->state(), ReplicaState::kHealthy);
  EXPECT_EQ(r1->LatestVersion(), 2u);
  EXPECT_EQ(Canon(r1->tree_store()->Current()->tree()),
            Canon(TreeForRound(2)));
}

TEST_F(ReplicaTest, PromoteBestPicksHighestIntactReplica) {
  ReplicaSet set(primary_.get());
  Replica* r1 = AddReplica(&set, "r1");
  Replica* r2 = AddReplica(&set, "r2");
  ASSERT_TRUE(primary_->Commit(TreeForRound(1), 1).ok());
  ASSERT_TRUE(set.ShipCommitted(1).ok());
  ASSERT_TRUE(primary_->Commit(TreeForRound(2), 2).ok());
  // r2 misses v2 (dropped ship): the drop hits the second replica shipped.
  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("repl.ship", "error:0.0").ok());
  ASSERT_TRUE(FailPointRegistry::Default()->Arm("repl.ship", "off").ok());
  {
    // Deterministic miss: install directly into r1 only.
    auto record = primary_->RecordBytes(2);
    ASSERT_TRUE(record.ok());
    ASSERT_TRUE(r1->Install(record.value()).ok());
  }
  EXPECT_EQ(r1->LatestVersion(), 2u);
  EXPECT_EQ(r2->LatestVersion(), 1u);

  // Primary "dies" here; the best surviving replica takes over.
  auto promoted = set.PromoteBest();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value(), r1);
  EXPECT_EQ(Canon(promoted.value()->tree_store()->Current()->tree()),
            Canon(TreeForRound(2)));

  // A promotion race (failpoint) surfaces as an error, not a bad pick.
  ASSERT_TRUE(
      FailPointRegistry::Default()->Arm("repl.promote", "error:1:x1").ok());
  EXPECT_FALSE(set.PromoteBest().ok());
  EXPECT_TRUE(set.PromoteBest().ok());  // Retry wins.
}

TEST_F(ReplicaTest, RecordsShipOverExpositionTransport) {
  for (uint32_t v = 1; v <= 2; ++v) {
    ASSERT_TRUE(primary_->Commit(TreeForRound(v), v).ok());
  }
  // Serve the primary log over the exposition server.
  TreeStore tree_store;
  serve::ExpositionOptions options;
  options.enabled = true;
  options.port = 0;
  serve::ServingExposition exposition(&tree_store, nullptr, nullptr, options);
  exposition.AttachDurability(primary_.get(), nullptr);
  ASSERT_TRUE(exposition.Start().ok());
  const int port = exposition.port();
  ASSERT_GT(port, 0);

  // The HTTP fetcher returns byte-identical framed records.
  auto over_http = FetchRecordOverHttp(port, 2);
  ASSERT_TRUE(over_http.ok());
  EXPECT_EQ(over_http.value(), primary_->RecordBytes(2).value());
  EXPECT_EQ(FetchRecordOverHttp(port, 99).status().code(),
            StatusCode::kNotFound);
  // The version must be the whole parameter as an unsigned integer; an
  // absent one means the latest.
  const auto status_of = [&exposition](const std::string& query) {
    const std::string reply =
        exposition.HandleStoreRecord({"GET", "/store/record", query});
    return reply.substr(0, reply.find("\r\n"));
  };
  for (const char* bad : {"2abc", "1abc", "1e9", "abc", "-1", "+2", "0x2",
                          "2%20", "18446744073709551617"}) {
    EXPECT_EQ(status_of(std::string("version=") + bad),
              "HTTP/1.1 400 Bad Request")
        << bad;
  }
  EXPECT_EQ(status_of(""), "HTTP/1.1 200 OK");
  EXPECT_EQ(status_of("version=1"), "HTTP/1.1 200 OK");
  EXPECT_EQ(status_of("version=0"), "HTTP/1.1 404 Not Found");

  // A replica set syncing through the HTTP transport converges.
  ReplicaSet set(primary_.get());
  Replica* r1 = AddReplica(&set, "http_replica");
  set.SetFetcher([port](TreeVersion version) {
    return FetchRecordOverHttp(port, version);
  });
  ASSERT_TRUE(set.SyncAll().ok());
  EXPECT_EQ(r1->LatestVersion(), 2u);
  EXPECT_EQ(Canon(r1->tree_store()->Current()->tree()),
            Canon(TreeForRound(2)));
  exposition.Stop();
}

// ---------------------------------------------------------------------------
// Crash harness: fork, die mid-commit, assert the recovery invariant from
// the parent. Plain builds only (see crash_harness.h).
// ---------------------------------------------------------------------------

#ifdef OCT_CRASH_HARNESS

class CrashHarnessTest : public ::testing::Test {
 protected:
  CrashHarnessTest() {
    FailPointRegistry::Default()->DisarmAll();
    dir_ = TestDir("oct_crash_");
    std::filesystem::remove_all(dir_);
  }
  ~CrashHarnessTest() override {
    FailPointRegistry::Default()->DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_F(CrashHarnessTest, AbortBetweenAppendAndManifestRecoversCommitted) {
  constexpr uint32_t kCommitted = 3;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: commit kCommitted versions, then die inside the next commit —
    // after the segment append, before the manifest rename.
    auto log = VersionLog::Open(dir_);
    if (!log.ok()) _exit(2);
    for (uint32_t v = 1; v <= kCommitted; ++v) {
      if (!(*log)->Commit(TreeForRound(v), v).ok()) _exit(3);
    }
    if (!FailPointRegistry::Default()->Arm("store.commit", "crash").ok()) {
      _exit(4);
    }
    (void)(*log)->Commit(TreeForRound(kCommitted + 1), kCommitted + 1);
    _exit(5);  // Unreachable: the failpoint aborts.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);

  // Parent-side invariant: recovery lands on the last *committed* version,
  // the orphan append is dropped, and the tree content is exact.
  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->LatestVersion(), kCommitted);
  EXPECT_GE((*log)->open_report().torn_records_dropped, 1u);
  EXPECT_EQ(Canon((*log)->OpenLatest().value()),
            Canon(TreeForRound(kCommitted)));
}

TEST_F(CrashHarnessTest, SigkillDuringCommitLoopNeverTearsTheLog) {
  const std::string progress_path = dir_ + "_progress";
  std::filesystem::remove(progress_path);
  std::filesystem::remove(progress_path + ".tmp");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto log = VersionLog::Open(dir_);
    if (!log.ok()) _exit(2);
    const std::string progress_tmp = progress_path + ".tmp";
    for (uint32_t v = 1; v <= 10000; ++v) {
      if (!(*log)->Commit(TreeForRound(v % 16), v).ok()) _exit(3);
      // Progress marker written only after a successful commit, and
      // replaced by rename so the kill never leaves it empty or partial.
      if (!obs::WriteStringToFile(progress_tmp, std::to_string(v)).ok() ||
          std::rename(progress_tmp.c_str(), progress_path.c_str()) != 0) {
        _exit(4);
      }
    }
    _exit(0);
  }
  // Let the child commit for a moment, then kill -9 mid-flight.
  ::usleep(120 * 1000);
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  auto progress = ReadFile(progress_path);
  ASSERT_TRUE(progress.ok()) << "child never completed a commit";
  const uint64_t last_acked = std::stoull(progress.value());
  ASSERT_GE(last_acked, 1u);

  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  // Never torn, never behind what the writer observed as committed.
  EXPECT_GE((*log)->LatestVersion(), last_acked);
  auto tree = (*log)->OpenLatest();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(Canon(tree.value()),
            Canon(TreeForRound((*log)->LatestVersion() % 16)));
  const std::vector<LogEntry> lineage = (*log)->Lineage();
  for (size_t i = 1; i < lineage.size(); ++i) {
    EXPECT_EQ(lineage[i].parent, lineage[i - 1].version);
  }
  std::filesystem::remove(progress_path);
  std::filesystem::remove(progress_path + ".tmp");
}

TEST_F(CrashHarnessTest, AbortBeforeManifestRenameKeepsPreviousVersion) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto log = VersionLog::Open(dir_);
    if (!log.ok()) _exit(2);
    if (!(*log)->Commit(TreeForRound(1), 1).ok()) _exit(3);
    // Die after MANIFEST.tmp is written and before it is renamed.
    if (!FailPointRegistry::Default()
             ->Arm("store.manifest.commit", "crash")
             .ok()) {
      _exit(4);
    }
    (void)(*log)->Commit(TreeForRound(2), 2);
    _exit(5);  // Unreachable: the failpoint aborts.
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);
  const std::string tmp_path = dir_ + "/MANIFEST.tmp";
  ASSERT_TRUE(std::filesystem::exists(tmp_path));

  auto log = VersionLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->LatestVersion(), 1u);
  EXPECT_FALSE(std::filesystem::exists(tmp_path));
  EXPECT_EQ(Canon((*log)->OpenLatest().value()), Canon(TreeForRound(1)));
}

#endif  // OCT_CRASH_HARNESS

}  // namespace
}  // namespace store
}  // namespace oct
