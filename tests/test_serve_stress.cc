// Thread-stress tests for the serving stack, designed to run under
// ThreadSanitizer (tools/run_sanitizers.sh tsan): N reader threads hammer
// TreeStore::Current() and snapshot lookups while publishes, rollbacks,
// diffs, and background rebuilds run concurrently. The invariants checked:
//   - readers never crash or observe a torn snapshot,
//   - versions observed by any single reader are monotonically
//     non-decreasing (publish is a single atomic swap),
//   - a snapshot held across publishes keeps answering lookups
//     (zero-downtime semantics).

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/serialization.h"
#include "store/replica.h"
#include "store/version_log.h"
#include "delta/maintainer.h"
#include "fault/failpoint.h"
#include "obs/export.h"
#include "paper_inputs.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"

namespace oct {
namespace serve {
namespace {

/// A small tree whose content encodes `round` so readers can check
/// version/content consistency: category "round" holds item `round`.
CategoryTree TreeForRound(uint32_t round) {
  CategoryTree tree;
  const NodeId marker = tree.AddCategory(tree.root(), "round");
  tree.AssignItem(marker, round);
  const NodeId other = tree.AddCategory(tree.root(), "stable");
  tree.AssignItem(other, 1000);
  return tree;
}

TEST(ServeStress, ReadersNeverBlockOrTearAcrossPublishes) {
  constexpr size_t kReaders = 4;
  constexpr uint32_t kPublishes = 200;

  TreeStore store(/*retain=*/3);
  store.Publish(TreeForRound(0), "round 0");

  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::atomic<uint64_t> total_lookups{0};
  std::vector<std::thread> readers;
  std::vector<std::atomic<bool>> ok(kReaders);
  for (auto& flag : ok) flag.store(true);

  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1);
      TreeVersion last_version = 0;
      uint64_t lookups = 0;
      // do-while: at least one lookup per reader even if the publisher
      // finishes before this thread is first scheduled (single-core CI).
      do {
        const auto snap = store.Current();
        if (snap == nullptr) continue;
        // Monotone versions: the swap is a single atomic store.
        if (snap->version() < last_version) ok[r].store(false);
        last_version = snap->version();
        // Content consistency: the marker item of round i is item i, and
        // every snapshot carries the stable item.
        const NodeId marker = snap->FindLabel("round");
        if (marker == kInvalidNode ||
            snap->SubtreeItemCount(snap->tree().root()) != 2 ||
            !snap->Contains(1000)) {
          ok[r].store(false);
        }
        ++lookups;
      } while (!done.load(std::memory_order_acquire));
      total_lookups.fetch_add(lookups);
    });
  }
  // Hold publishing until every reader is up so reads and writes genuinely
  // overlap (a single-core scheduler can otherwise run them sequentially).
  while (started.load() < kReaders) std::this_thread::yield();

  // Publisher: versions churn while readers run; occasionally exercise the
  // operator surfaces (diff, rollback, retained listing) concurrently too.
  for (uint32_t round = 1; round <= kPublishes; ++round) {
    store.Publish(TreeForRound(round), "round " + std::to_string(round));
    if (round % 16 == 0) {
      const auto versions = store.RetainedVersions();
      ASSERT_GE(versions.size(), 2u);
      const auto diff =
          store.Diff(versions.front().version, versions.back().version);
      EXPECT_TRUE(diff.ok());
    }
    if (round % 64 == 0) {
      EXPECT_TRUE(store.Rollback(store.CurrentVersion()).ok());
    }
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(ok[r].load()) << "reader " << r << " saw an inconsistency";
  }
  EXPECT_GT(total_lookups.load(), 0u);
  EXPECT_GE(store.CurrentVersion(), kPublishes);
}

TEST(ServeStress, HeldSnapshotOutlivesManyPublishes) {
  TreeStore store(/*retain=*/2);
  store.Publish(TreeForRound(0), "round 0");
  const auto held = store.Current();

  std::thread publisher([&] {
    for (uint32_t round = 1; round <= 100; ++round) {
      store.Publish(TreeForRound(round), "");
    }
  });
  // Concurrent reads against the held (soon-evicted) snapshot.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(held->Contains(0));
    ASSERT_TRUE(held->Contains(1000));
    ASSERT_EQ(held->version(), 1u);
  }
  publisher.join();
  EXPECT_EQ(store.Version(1), nullptr);  // Evicted from history...
  EXPECT_TRUE(held->Contains(0));        // ...but alive while referenced.
}

TEST(ServeStress, ReadersProceedDuringBackgroundRebuilds) {
  using testing_inputs::Figure2Input;

  data::Dataset dataset;
  TreeStore store;
  ServeStats stats;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  ThreadPool pool(2);
  RebuildScheduler scheduler(&store, &stats, &dataset, sim, {}, &pool);
  scheduler.RebuildNow(Figure2Input());

  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::atomic<uint64_t> lookups{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      // do-while: at least one pass per reader even if every rebuild round
      // completes before this thread is first scheduled (loaded 1-core CI).
      do {
        const auto snap = store.Current();
        uint64_t found = 0;
        for (ItemId item = 0; item < 20; ++item) found += snap->Contains(item);
        hits.fetch_add(found);
        lookups.fetch_add(20);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  // Rebuilds wait for all readers to be live so they genuinely overlap.
  while (started.load() < readers.size()) std::this_thread::yield();

  // Alternate between two drifting distributions so every other batch
  // triggers a real background rebuild while the readers spin.
  OctInput drift_a(20);
  drift_a.Add(ItemSet({10, 11, 12}), 2.0, "joggers");
  drift_a.Add(ItemSet({13, 14, 15, 16}), 1.0, "windbreakers");
  for (int round = 0; round < 6; ++round) {
    const OctInput& batch = (round % 2 == 0) ? drift_a : Figure2Input();
    scheduler.OfferBatch(batch);
    scheduler.WaitForRebuild();
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(lookups.load(), 0u);
  EXPECT_GT(hits.load(), 0u);  // Every served tree places some of 0..19.
  EXPECT_GT(store.CurrentVersion(), 1u);  // Rebuilds actually published.
  EXPECT_GE(stats.rebuilds_triggered.Value(), 2u);
}

/// Asserts that `log`'s committed lineage is a chain: each record's parent
/// is the record before it.
void ExpectLineageChain(const store::VersionLog& log) {
  const std::vector<store::LogEntry> lineage = log.Lineage();
  for (size_t i = 1; i < lineage.size(); ++i) {
    EXPECT_EQ(lineage[i].parent, lineage[i - 1].version) << "record " << i;
  }
}

// Chaos test: readers hammer the store while rebuilds and publishes run,
// every publish commits to a WarmStart-hooked version log, and failpoints
// are armed on every fault site at once. Whatever the injected schedule
// does, the serving invariants must hold: readers only ever see complete
// snapshots, versions stay monotone, and a restart warm-starts from the
// log's latest committed tree.
// Errors and delays only (no `crash`): the test must also pass under TSan,
// where abort-based one-shots are off the table.
TEST(ServeStress, ReadersSurviveChaosScheduleWithRecoverableLog) {
  using testing_inputs::Figure2Input;
  auto* registry = fault::FailPointRegistry::Default();

  // tools/run_chaos.sh injects its own randomized schedule through the
  // environment; only arm the built-in one when none was provided.
  const bool env_armed = std::getenv("OCT_FAILPOINTS") != nullptr;
  if (!env_armed) {
    registry->Seed(20260806);
    ASSERT_TRUE(registry
                    ->ArmFromSpec("serve.rebuild=error:0.3,"
                                  "serve.publish=error:0.2,"
                                  "store.commit=error:0.3,"
                                  "store.manifest.commit=error:0.2,"
                                  "mis.solve=delay:1ms:0.5")
                    .ok());
  }

  const std::string dir = ::testing::TempDir() + "oct_chaos_log";
  std::filesystem::remove_all(dir);
  auto log = store::VersionLog::Open(dir);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  data::Dataset dataset;
  TreeStore store;
  ASSERT_TRUE(store::WarmStart(log->get(), &store).ok());
  ServeStats stats;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  ThreadPool pool(2);
  RebuildPolicy policy;
  policy.max_retries = 2;
  policy.backoff_initial_seconds = 0.001;
  policy.backoff_max_seconds = 0.004;
  policy.breaker_failure_threshold = 0;  // Chaos keeps offering batches.
  RebuildScheduler scheduler(&store, &stats, &dataset, sim, policy, &pool);

  // Bootstrap may need several tries under a 30% rebuild error rate.
  for (int i = 0; i < 20 && store.Current() == nullptr; ++i) {
    scheduler.RebuildNow(Figure2Input());
  }
  ASSERT_NE(store.Current(), nullptr);

  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  std::vector<std::atomic<bool>> ok(3);
  for (auto& flag : ok) flag.store(true);
  for (size_t r = 0; r < ok.size(); ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1);
      TreeVersion last_version = 0;
      do {
        const auto snap = store.Current();
        if (snap == nullptr || snap->version() < last_version) {
          ok[r].store(false);
        } else {
          last_version = snap->version();
          uint64_t found = 0;
          for (ItemId item = 0; item < 20; ++item) {
            found += snap->Contains(item);
          }
          hits.fetch_add(found);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (started.load() < readers.size()) std::this_thread::yield();

  // Chaos rounds: drift back and forth; every publish commits to the log.
  // Any rebuild, publish or commit may fail by injection — that is the
  // point; they must fail cleanly (Status out, log unchanged up to its
  // commit point) while readers keep going.
  OctInput drift(20);
  drift.Add(ItemSet({10, 11, 12}), 2.0, "joggers");
  drift.Add(ItemSet({13, 14, 15, 16}), 1.0, "windbreakers");
  for (int round = 0; round < 12; ++round) {
    const OctInput& batch = (round % 2 == 0) ? drift : Figure2Input();
    scheduler.OfferBatch(batch);
    scheduler.WaitForRebuild();
  }
  // Under injection some commits fail; republish until one lands so the
  // recovery check below is meaningful even on unlucky schedules.
  for (int i = 0; i < 20 && (*log)->LatestVersion() == 0; ++i) {
    EXPECT_TRUE(store.Rollback(store.CurrentVersion()).ok());
  }

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (size_t r = 0; r < ok.size(); ++r) {
    EXPECT_TRUE(ok[r].load()) << "reader " << r << " saw an inconsistency";
  }
  EXPECT_GT(hits.load(), 0u);  // Every served tree places some of 0..19.

  // Restart, run clean: failed commits left only uncommitted bytes, so a
  // reopen lands on the latest committed version and warm-starts its tree.
  registry->DisarmAll();
  const TreeVersion committed = (*log)->LatestVersion();
  ASSERT_GT(committed, 0u);
  const std::string committed_tree =
      SerializeTree((*log)->OpenLatest().value());
  store.SetPublishHook(nullptr);
  log->reset();
  auto reopened = store::VersionLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->LatestVersion(), committed);
  EXPECT_EQ((*reopened)->open_report().records_quarantined, 0u);
  EXPECT_FALSE((*reopened)->open_report().manifest_rebuilt);
  ExpectLineageChain(**reopened);
  TreeStore recovered;
  ASSERT_TRUE(store::WarmStart(reopened->get(), &recovered).ok());
  ASSERT_NE(recovered.Current(), nullptr);
  EXPECT_EQ(SerializeTree(recovered.Current()->tree()), committed_tree);

  std::filesystem::remove_all(dir);
}

// Second chaos scenario, deterministic phases: the circuit breaker opens
// under sustained rebuild failures and recovers after the cooldown, then a
// kill-and-recover cycle (bit rot on the newest committed record + a
// publish whose commit dies before its manifest rename) warm-starts from
// the last good commit — all while readers run.
TEST(ServeStress, BreakerOpensRecoversAndKillRecoverWarmStartsFromLog) {
  using testing_inputs::Figure2Input;
  auto* registry = fault::FailPointRegistry::Default();
  if (std::getenv("OCT_FAILPOINTS") != nullptr) {
    GTEST_SKIP() << "environment failpoint schedule would perturb the "
                    "deterministic breaker phases";
  }
  registry->DisarmAll();

  const std::string dir = ::testing::TempDir() + "oct_chaos_breaker";
  std::filesystem::remove_all(dir);
  auto log = store::VersionLog::Open(dir);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  data::Dataset dataset;
  TreeStore store;
  ASSERT_TRUE(store::WarmStart(log->get(), &store).ok());
  ServeStats stats;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  ThreadPool pool(2);
  RebuildPolicy policy;
  policy.max_retries = 0;
  policy.breaker_failure_threshold = 2;
  policy.breaker_cooldown_seconds = 0.02;
  RebuildScheduler scheduler(&store, &stats, &dataset, sim, policy, &pool);

  // Clean bootstrap; its commit is the recovery target.
  ASSERT_TRUE(scheduler.RebuildNow(Figure2Input()).published);
  const TreeVersion good_version = store.CurrentVersion();
  ASSERT_EQ((*log)->LatestVersion(), good_version);
  const std::string good_tree = SerializeTree(store.Current()->tree());

  std::atomic<bool> done{false};
  std::atomic<bool> reader_ok{true};
  std::thread reader([&] {
    TreeVersion last_version = 0;
    do {
      const auto snap = store.Current();
      if (snap == nullptr || snap->version() < last_version) {
        reader_ok.store(false);
      } else {
        last_version = snap->version();
      }
    } while (!done.load(std::memory_order_acquire));
  });

  // Phase 1: rebuilds fail hard until the breaker opens; readers keep the
  // last good snapshot the whole time.
  ASSERT_TRUE(registry->Arm("serve.rebuild", "error").ok());
  OctInput drift(20);
  drift.Add(ItemSet({10, 11, 12}), 2.0, "joggers");
  drift.Add(ItemSet({13, 14, 15, 16}), 1.0, "windbreakers");
  for (int i = 0;
       i < 10 && scheduler.circuit_state() != CircuitState::kOpen; ++i) {
    scheduler.OfferBatch(drift);
    scheduler.WaitForRebuild();
  }
  EXPECT_EQ(scheduler.circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(scheduler.OfferBatch(drift), BatchDecision::kCircuitOpen);
  EXPECT_EQ(store.CurrentVersion(), good_version);  // Last good, not empty.

  // Phase 2: the fault clears; after the cooldown the half-open trial
  // succeeds and the breaker closes.
  registry->DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(scheduler.OfferBatch(drift), BatchDecision::kScheduled);
  scheduler.WaitForRebuild();
  EXPECT_EQ(scheduler.circuit_state(), CircuitState::kClosed);
  EXPECT_GT(store.CurrentVersion(), good_version);
  EXPECT_GE(stats.breaker_opened.Value(), 1u);
  EXPECT_GE(stats.breaker_closed.Value(), 1u);

  // Phase 3: kill-and-recover. The newest committed record suffers bit
  // rot, and the next publish's commit dies between writing MANIFEST.tmp
  // and renaming it. Recovery must drop the rotten record and serve the
  // last good commit — never the corrupt bytes.
  const store::LogEntry newest = (*log)->Lineage().back();
  ASSERT_GT(newest.version, good_version);
  char segment_name[32];
  std::snprintf(segment_name, sizeof(segment_name), "/seg-%06u.log",
                newest.segment);
  const std::string segment_path = dir + segment_name;
  std::string bytes = ReadFile(segment_path).value();
  bytes[newest.offset + newest.bytes - 2] ^= 0x40;
  ASSERT_TRUE(obs::WriteStringToFile(segment_path, bytes).ok());
  ASSERT_TRUE(registry->Arm("store.manifest.commit", "error:1:x1").ok());
  ASSERT_TRUE(store.Rollback(store.CurrentVersion()).ok());
  EXPECT_EQ((*log)->LatestVersion(), newest.version);  // Commit failed.
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.tmp"));
  registry->DisarmAll();

  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(reader_ok.load()) << "reader saw an inconsistency";

  store.SetPublishHook(nullptr);
  log->reset();
  auto reopened = store::VersionLog::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->open_report().records_quarantined, 1u);
  EXPECT_EQ((*reopened)->LatestVersion(), good_version);
  ExpectLineageChain(**reopened);
  TreeStore recovered;
  const auto report = store::WarmStart(reopened->get(), &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->log_version, good_version);
  ASSERT_NE(recovered.Current(), nullptr);
  EXPECT_EQ(recovered.Current()->note(),
            "warmstart:v" + std::to_string(good_version));
  EXPECT_EQ(SerializeTree(recovered.Current()->tree()), good_tree);

  std::filesystem::remove_all(dir);
}

/// CandidateSet literal for the delta stress scenarios.
CandidateSet QuerySet(std::string label, std::vector<ItemId> items,
                      double weight = 1.0) {
  CandidateSet set;
  set.items = ItemSet(std::move(items));
  set.weight = weight;
  set.label = std::move(label);
  return set;
}

// Delta splices under live traffic: producer threads feed the DeltaLog
// while the maintainer pumps spliced publishes, rollbacks and direct
// publishes interleave with the splices, and readers hammer Current().
// Invariants:
//   - versions observed by any reader stay monotone, snapshots never torn,
//   - retain-K keeps bounding the history while splices/publishes churn,
//   - rollback mid-stream republishes cleanly and later splices continue,
//   - every splice passes the equivalence audit (verify_epsilon > 0), so
//     concurrency never lets an incrementally-spliced tree drift from the
//     full rebuild of the same cumulative input.
TEST(ServeStress, DeltaSplicesInterleaveWithPublishesAndRollbacks) {
  constexpr size_t kRetain = 3;
  constexpr int kRounds = 24;

  TreeStore store(kRetain);
  ServeStats stats;
  const Similarity sim(Variant::kJaccardThreshold, 0.5);

  delta::DeltaMaintainerOptions options;
  options.verify_epsilon = 0.05;  // Audit every single splice.
  delta::DeltaMaintainer maintainer(&store, &stats, sim, options);

  // Bootstrap: a seed working set and its first published tree.
  maintainer.UpsertQuery("shirt", QuerySet("shirt", {0, 1, 2, 3, 4}, 2.0));
  maintainer.UpsertQuery("shoes", QuerySet("shoes", {10, 11, 12}, 1.5));
  maintainer.UpsertQuery("socks", QuerySet("socks", {10, 11}, 1.0));
  const auto seeded = maintainer.PublishFullRebuild();
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<size_t> started{0};
  std::vector<std::atomic<bool>> ok(3);
  for (auto& flag : ok) flag.store(true);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < ok.size(); ++r) {
    readers.emplace_back([&, r] {
      started.fetch_add(1);
      TreeVersion last_version = 0;
      do {
        const auto snap = store.Current();
        if (snap == nullptr || snap->version() < last_version ||
            snap->tree().num_nodes() == 0) {
          ok[r].store(false);
        } else {
          last_version = snap->version();
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // Two producers append concurrently with the pumps below — this is the
  // DeltaLog's coalescing under real contention, checked by TSan.
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      started.fetch_add(1);
      for (int i = 0; i < kRounds; ++i) {
        const std::string label =
            "p" + std::to_string(p) + "-q" + std::to_string(i % 6);
        maintainer.UpsertQuery(
            label, QuerySet(label,
                            {static_cast<ItemId>((p * 13 + i * 7) % 24),
                             static_cast<ItemId>((p * 5 + i * 11) % 24),
                             static_cast<ItemId>(30 + p)},
                            1.0 + 0.1 * (i % 4)));
        if (i % 5 == 4) maintainer.RemoveQuery(label);
        if (i % 9 == 8) {
          maintainer.RemoveItem(static_cast<ItemId>(i % 24));
        }
      }
    });
  }
  while (started.load() < ok.size() + producers.size()) {
    std::this_thread::yield();
  }

  // Consumer: pump the log while producers append, interleaving rollbacks
  // and a direct publish so delta versions and non-delta versions mix.
  size_t splices = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto pumped = maintainer.PumpOnce();
    ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
    if (pumped.value() != 0) ++splices;
    if (round % 6 == 3) {
      ASSERT_TRUE(store.Rollback(store.CurrentVersion()).ok());
    }
    if (round % 8 == 5) {
      store.Publish(TreeForRound(static_cast<uint32_t>(round)), "direct");
    }
    ASSERT_LE(store.RetainedVersions().size(), kRetain);
  }
  for (auto& t : producers) t.join();

  // Drain whatever the producers appended after the last pump, then end on
  // a spliced tree so the final note reflects the delta path.
  const auto final_pump = maintainer.PumpOnce();
  ASSERT_TRUE(final_pump.ok()) << final_pump.status().ToString();
  const auto republished = maintainer.Republish();
  ASSERT_TRUE(republished.ok()) << republished.status().ToString();

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (size_t r = 0; r < ok.size(); ++r) {
    EXPECT_TRUE(ok[r].load()) << "reader " << r << " saw an inconsistency";
  }

  EXPECT_GT(splices, 0u);
  EXPECT_LE(store.RetainedVersions().size(), kRetain);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->note().rfind("delta", 0), 0u)
      << store.Current()->note();

  // Every splice was audited against a fresh full rebuild; none diverged.
  const delta::DeltaStats& ds = maintainer.stats();
  EXPECT_GT(ds.equivalence_checks.Value(), 0u);
  EXPECT_EQ(ds.equivalence_failures.Value(), 0u);
  EXPECT_GE(ds.splices.Value(), splices);
}

// Failed splice mid-chaos: arm the delta failpoints with error rates while
// pumps, rollbacks, and readers run. Any pump may fail by injection — it
// must fail closed (Status out, store untouched by the failed attempt),
// and a later Republish()/pump must recover to a consistent spliced tree.
TEST(ServeStress, DeltaSpliceFailuresRecoverUnderChaos) {
  auto* registry = fault::FailPointRegistry::Default();
  const bool env_armed = std::getenv("OCT_FAILPOINTS") != nullptr;
  if (!env_armed) {
    registry->Seed(20260808);
    ASSERT_TRUE(registry
                    ->ArmFromSpec("delta.apply=error:0.2,"
                                  "delta.component=error:0.1,"
                                  "delta.splice=error:0.2")
                    .ok());
  }

  TreeStore store(/*retain=*/2);
  ServeStats stats;
  const Similarity sim(Variant::kJaccardThreshold, 0.5);
  delta::DeltaMaintainerOptions options;
  options.verify_epsilon = 0.05;
  delta::DeltaMaintainer maintainer(&store, &stats, sim, options);

  maintainer.UpsertQuery("seed-a", QuerySet("seed-a", {0, 1, 2}, 2.0));
  maintainer.UpsertQuery("seed-b", QuerySet("seed-b", {5, 6, 7}, 1.0));
  // Bootstrap may need several tries under injected apply/splice errors.
  bool seeded = false;
  for (int i = 0; i < 50 && !seeded; ++i) {
    seeded = maintainer.PublishFullRebuild().ok();
  }
  ASSERT_TRUE(seeded);
  const TreeVersion seeded_version = store.CurrentVersion();

  std::atomic<bool> done{false};
  std::atomic<bool> reader_ok{true};
  std::thread reader([&] {
    TreeVersion last_version = 0;
    do {
      const auto snap = store.Current();
      if (snap == nullptr || snap->version() < last_version) {
        reader_ok.store(false);
      } else {
        last_version = snap->version();
      }
    } while (!done.load(std::memory_order_acquire));
  });

  size_t failed_pumps = 0;
  for (int round = 0; round < 30; ++round) {
    const std::string label = "q" + std::to_string(round % 8);
    maintainer.UpsertQuery(
        label, QuerySet(label,
                        {static_cast<ItemId>(round % 16),
                         static_cast<ItemId>((round * 3) % 16)},
                        1.0));
    const TreeVersion before = store.CurrentVersion();
    const auto pumped = maintainer.PumpOnce();
    if (!pumped.ok()) {
      ++failed_pumps;
      // Failed closed: the store still serves the pre-pump version.
      EXPECT_EQ(store.CurrentVersion(), before);
    }
    if (round % 7 == 6) {
      EXPECT_TRUE(store.Rollback(store.CurrentVersion()).ok());
    }
  }

  // Recovery: disarm and republish the cumulative state. The drained ops
  // survived the failed pumps inside the working set, so nothing is lost.
  if (!env_armed) registry->DisarmAll();
  bool recovered = false;
  for (int i = 0; i < 50 && !recovered; ++i) {
    recovered = maintainer.Republish().ok();
  }
  ASSERT_TRUE(recovered);

  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(reader_ok.load()) << "reader saw an inconsistency";

  EXPECT_GT(store.CurrentVersion(), seeded_version);
  EXPECT_EQ(store.Current()->note().rfind("delta", 0), 0u);
  EXPECT_EQ(maintainer.stats().equivalence_failures.Value(), 0u);
  if (!env_armed) {
    EXPECT_GT(failed_pumps, 0u);  // The schedule really injected failures.
  }
}

TEST(ServeStress, StoreReplicationFailoverUnderChaos) {
  // Kill-and-recover replication round, sanitizer-safe (no fork): the
  // publish hook commits every publish to a version log and ships it to
  // two replicas while failpoints drop ships, fail commits, and fail
  // installs. Reader threads hammer the serving store and both replica
  // stores throughout. After the storm the set must heal: every replica
  // converges on the primary lineage and the promoted replica serves the
  // primary's exact canonical tree.
  auto* registry = fault::FailPointRegistry::Default();
  const bool env_armed = std::getenv("OCT_FAILPOINTS") != nullptr;
  if (!env_armed) {
    registry->Seed(20260808);
    ASSERT_TRUE(registry
                    ->ArmFromSpec("repl.ship=error:0.25,"
                                  "repl.install=error:0.15,"
                                  "store.commit=error:0.1,"
                                  "repl.promote=error:0.1")
                    .ok());
  }
  const std::string dir =
      ::testing::TempDir() + "oct_stress_repl_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  std::filesystem::remove_all(dir);

  auto primary = store::VersionLog::Open(dir + "/primary");
  ASSERT_TRUE(primary.ok());
  store::ReplicaSet replicas(primary->get());
  for (const char* name : {"r1", "r2"}) {
    auto replica = store::Replica::Open(name, dir + "/" + name);
    ASSERT_TRUE(replica.ok());
    replicas.AddReplica(std::move(replica).value());
  }

  TreeStore store(/*retain=*/2);
  store::VersionLog* log = primary->get();
  store::ReplicaSet* set = &replicas;
  store.SetPublishHook([log, set](const TreeSnapshot& snap) {
    // Chaos drops commits and ships; the serving path must never notice.
    if (log->Commit(snap.tree(), snap.version(), snap.note()).ok()) {
      (void)set->ShipCommitted(snap.version());
    }
  });

  std::atomic<bool> done{false};
  std::atomic<bool> reader_ok{true};
  std::vector<std::thread> readers;
  const auto spawn_reader = [&](const TreeStore* target) {
    readers.emplace_back([&, target] {
      TreeVersion last_version = 0;
      do {
        const auto snap = target->Current();
        if (snap == nullptr) continue;  // Replicas start empty.
        if (snap->version() < last_version ||
            snap->tree().NumCategories() == 0) {
          reader_ok.store(false);
        } else {
          last_version = snap->version();
        }
      } while (!done.load(std::memory_order_acquire));
    });
  };
  spawn_reader(&store);
  spawn_reader(replicas.replica(0)->tree_store());
  spawn_reader(replicas.replica(1)->tree_store());

  std::thread publisher([&] {
    for (uint32_t round = 1; round <= 60; ++round) {
      store.Publish(TreeForRound(round), "round " + std::to_string(round));
    }
  });

  // Rotating promotion under live publishes: promote whatever replica is
  // intact right now, and keep healing quarantined ones. Every call may
  // fail under chaos — that must never wedge the set.
  for (int i = 0; i < 20; ++i) {
    (void)set->PromoteBest();
    (void)set->ReSeedQuarantined();
    (void)set->ShipCommitted(log->LatestVersion());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  publisher.join();

  // Storm over: heal until the set actually converges. A dropped ship is
  // not an error (the transport retries by design), so SyncAll().ok() alone
  // is not convergence — check state and version directly, which also keeps
  // this loop correct when an environment schedule stays armed throughout.
  if (!env_armed) registry->DisarmAll();
  bool healed = false;
  for (int i = 0; i < 300 && !healed; ++i) {
    (void)replicas.SyncAll();
    healed = true;
    for (size_t r = 0; r < replicas.num_replicas(); ++r) {
      healed = healed &&
               replicas.replica(r)->state() == store::ReplicaState::kHealthy &&
               replicas.replica(r)->LatestVersion() == log->LatestVersion();
    }
  }
  ASSERT_TRUE(healed) << "replica set failed to converge after the storm";

  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_TRUE(reader_ok.load()) << "a reader saw a torn or regressing tree";

  const TreeVersion primary_latest = log->LatestVersion();
  ASSERT_GT(primary_latest, 0u);
  for (size_t i = 0; i < replicas.num_replicas(); ++i) {
    EXPECT_EQ(replicas.replica(i)->state(), store::ReplicaState::kHealthy);
    EXPECT_EQ(replicas.replica(i)->LatestVersion(), primary_latest);
  }
  // Under an environment-armed schedule repl.promote stays probabilistic,
  // so promotion gets the same retry budget an operator would give it.
  Result<store::Replica*> promoted = replicas.PromoteBest();
  for (int i = 0; i < 50 && !promoted.ok(); ++i) {
    promoted = replicas.PromoteBest();
  }
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value()->LatestVersion(), primary_latest);
  auto primary_tree = log->OpenLatest();
  ASSERT_TRUE(primary_tree.ok());
  EXPECT_EQ(SerializeTree(promoted.value()->tree_store()->Current()->tree()),
            SerializeTree(primary_tree.value()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace serve
}  // namespace oct
