// oct::store durability bench: kill-and-recover trials, warm-start cost,
// and replica promotion under live routing traffic.
//
// Hard gates (exit 1):
//   (a) 100/100 seeded kill trials — a writer process dies mid-commit
//       (SIGABRT between segment append and manifest rename, or SIGKILL at
//       a random point in a commit loop) and recovery must land exactly on
//       the last committed version with an intact parent lineage and a
//       byte-identical canonical tree.
//   (b) warm start after a simulated process restart serves the same
//       canonical tree the pre-crash process served, for a real
//       dataset-sized tree.
//   (c) replica promotion under live Route() traffic: while clients hammer
//       the router, the primary dies, a replica is promoted, and the
//       serving store is redirected — with zero torn reads (every answer
//       comes from a fully published version) and no stalled client
//       (sheds-never-stalls: slow answers shed, they do not block).
//
// Timings feed bench.recovery_open_us / bench.warm_start_us /
// bench.failover_us so bench_snapshot.sh snapshots them and
// tools/bench_diff.py can gate drift.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/serialization.h"
#include "data/datasets.h"
#include "data/query_log.h"
#include "fault/failpoint.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "router/router.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "store/replica.h"
#include "store/version_log.h"
#include "util/rng.h"
#include "util/table_writer.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define OCT_BENCH_HAVE_FORK 1
#endif

// Sanitizer runtimes do not survive fork + SIGKILL children; the kill
// trials only run in plain builds (the CI bench job is a plain build).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#undef OCT_BENCH_HAVE_FORK
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#undef OCT_BENCH_HAVE_FORK
#endif
#endif

namespace oct {
namespace {

constexpr int kKillTrials = 100;
constexpr double kMaxRouteSecondsBeforeStall = 1.0;

std::string Canon(const CategoryTree& tree) { return SerializeTree(tree); }

CategoryTree TreeForRound(uint32_t round) {
  CategoryTree tree;
  const NodeId marker = tree.AddCategory(tree.root(), "round");
  tree.AssignItem(marker, round);
  const NodeId shoes = tree.AddCategory(tree.root(), "shoes", 0);
  for (uint32_t i = 0; i < 4 + round % 8; ++i) {
    const NodeId extra =
        tree.AddCategory(shoes, "gen" + std::to_string(i), 1 + i);
    tree.AssignItem(extra, 100 + round * 16 + i);
  }
  return tree;
}

// -------------------------------------------------------------------------
// (a) Kill-and-recover trials.
// -------------------------------------------------------------------------

#ifdef OCT_BENCH_HAVE_FORK

struct TrialOutcome {
  bool ok = false;
  std::string detail;
};

/// One seeded trial: a forked writer commits, dies mid-commit, and the
/// parent asserts the recovery invariant. Even trials abort between segment
/// append and manifest rename (the widest crash window the commit protocol
/// has); odd trials take a SIGKILL at a seeded random point in a commit
/// loop.
TrialOutcome RunKillTrial(const std::string& dir, int trial,
                          obs::Histogram* open_us) {
  std::filesystem::remove_all(dir);
  const std::string progress_path = dir + ".progress";
  std::filesystem::remove(progress_path);
  Rng rng(0x57ea1u + static_cast<uint64_t>(trial));
  const bool abort_trial = trial % 2 == 0;
  const uint32_t committed = 1 + static_cast<uint32_t>(rng.NextBelow(6));

  const pid_t pid = fork();
  if (pid < 0) return {false, "fork failed"};
  if (pid == 0) {
    auto log = store::VersionLog::Open(dir);
    if (!log.ok()) _exit(2);
    if (abort_trial) {
      for (uint32_t v = 1; v <= committed; ++v) {
        if (!(*log)->Commit(TreeForRound(v), v).ok()) _exit(3);
      }
      (void)fault::FailPointRegistry::Default()->Arm("store.commit", "crash");
      (void)(*log)->Commit(TreeForRound(committed + 1), committed + 1);
      _exit(4);  // Unreachable: the failpoint aborts.
    }
    for (uint32_t v = 1; v <= 100000; ++v) {
      if (!(*log)->Commit(TreeForRound(v), v).ok()) _exit(3);
      // The ack marker is written only after the commit returned OK: the
      // recovered log may never be behind it.
      if (!obs::WriteStringToFile(progress_path, std::to_string(v)).ok()) {
        _exit(5);
      }
    }
    _exit(0);
  }

  if (!abort_trial) {
    ::usleep(static_cast<useconds_t>(5000 + rng.NextBelow(60000)));
    ::kill(pid, SIGKILL);
  }
  int wstatus = 0;
  if (waitpid(pid, &wstatus, 0) != pid) return {false, "waitpid failed"};
  if (!WIFSIGNALED(wstatus)) {
    return {false, "writer exited " + std::to_string(WEXITSTATUS(wstatus)) +
                       " instead of dying mid-commit"};
  }

  Timer open_timer;
  auto log = store::VersionLog::Open(dir);
  open_us->Record(open_timer.ElapsedSeconds() * 1e6);
  if (!log.ok()) return {false, "recovery open: " + log.status().ToString()};

  store::TreeVersion expect = committed;
  if (!abort_trial) {
    // The ack marker itself can be torn by SIGKILL, so its parse is
    // best-effort: a missing/garbled marker just means no ack observed.
    uint64_t acked = 0;
    auto progress = ReadFile(progress_path);
    if (progress.ok()) {
      acked = std::strtoull(progress.value().c_str(), nullptr, 10);
    }
    if ((*log)->LatestVersion() < acked) {
      return {false, "recovered v" +
                         std::to_string((*log)->LatestVersion()) +
                         " but writer acked v" + std::to_string(acked)};
    }
    expect = (*log)->LatestVersion();  // May be ahead of the last ack.
    if (expect == 0) {
      // Killed before the first commit landed: an empty log is correct.
      std::filesystem::remove_all(dir);
      std::filesystem::remove(progress_path);
      return {true, ""};
    }
  } else if ((*log)->LatestVersion() != expect) {
    return {false, "recovered v" + std::to_string((*log)->LatestVersion()) +
                       ", expected v" + std::to_string(expect)};
  }

  auto tree = (*log)->OpenLatest();
  if (!tree.ok()) return {false, "open latest: " + tree.status().ToString()};
  if (Canon(tree.value()) !=
      Canon(TreeForRound(static_cast<uint32_t>(expect)))) {
    return {false, "recovered tree content diverges at v" +
                       std::to_string(expect)};
  }
  const std::vector<store::LogEntry> lineage = (*log)->Lineage();
  for (size_t i = 1; i < lineage.size(); ++i) {
    if (lineage[i].parent != lineage[i - 1].version) {
      return {false, "lineage break at entry " + std::to_string(i)};
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove(progress_path);
  return {true, ""};
}

#endif  // OCT_BENCH_HAVE_FORK

// -------------------------------------------------------------------------
// (c) helpers: routing traffic.
// -------------------------------------------------------------------------

std::vector<data::Query> BuildQueryMix(const data::Catalog& catalog) {
  data::QueryLogOptions options;
  options.num_queries = 128;
  options.seed = 20260808;
  std::vector<data::LoggedQuery> log =
      data::GenerateQueryLog(catalog, options);
  std::vector<data::Query> queries;
  queries.reserve(log.size());
  for (auto& entry : log) queries.push_back(std::move(entry.query));
  return queries;
}

}  // namespace

int Run() {
  obs::Histogram* open_us = obs::MetricsRegistry::Default()->GetHistogram(
      "bench.recovery_open_us", "version-log recovery open", "us");
  obs::Histogram* warm_us = obs::MetricsRegistry::Default()->GetHistogram(
      "bench.warm_start_us", "warm start to serving", "us");
  obs::Histogram* failover_us = obs::MetricsRegistry::Default()->GetHistogram(
      "bench.failover_us", "primary kill to promoted serving", "us");

  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  data::Dataset ds = data::MakeDataset('B', sim);
  bench::PrintHeader("store recovery (kill, warm start, failover)", ds);
  const std::string base =
      std::filesystem::temp_directory_path() / "oct_store_recovery";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  std::vector<std::string> failures;

  // ---- (a) kill-and-recover trials -------------------------------------
#ifdef OCT_BENCH_HAVE_FORK
  {
    int passed = 0;
    for (int trial = 0; trial < kKillTrials; ++trial) {
      const TrialOutcome outcome =
          RunKillTrial(base + "/trial", trial, open_us);
      if (outcome.ok) {
        ++passed;
      } else {
        failures.push_back("kill trial " + std::to_string(trial) + ": " +
                           outcome.detail);
      }
    }
    std::printf("kill-and-recover: %d/%d trials recovered to the last "
                "committed version\n",
                passed, kKillTrials);
    if (passed != kKillTrials) {
      failures.push_back("kill trials: " + std::to_string(passed) + "/" +
                         std::to_string(kKillTrials) + " (need 100%)");
    }
  }
#else
  std::printf(
      "kill-and-recover: skipped (fork harness disabled under sanitizers)\n");
#endif

  // ---- (b) warm start ---------------------------------------------------
  {
    const std::string dir = base + "/warm";
    std::string pre_crash_canon;
    store::TreeVersion pre_crash_version = 0;
    {
      // "First process": bootstrap from the dataset, hook the store to the
      // log, publish a few rebuild generations, then drop everything on the
      // floor (the crash).
      serve::TreeStore tree_store(/*retain=*/2);
      serve::ServeStats serve_stats;
      serve::RebuildScheduler scheduler(&tree_store, &serve_stats, &ds, sim);
      const serve::RebuildOutcome boot = scheduler.RebuildNow(ds.input);
      if (!boot.published) {
        std::fprintf(stderr, "FAIL: bootstrap publish: %s\n",
                     boot.status.ToString().c_str());
        return 1;
      }
      auto log = store::VersionLog::Open(dir);
      if (!log.ok()) {
        std::fprintf(stderr, "FAIL: open log: %s\n",
                     log.status().ToString().c_str());
        return 1;
      }
      const Status seeded =
          (*log)->Commit(tree_store.Current()->tree(),
                         tree_store.Current()->version(), "bootstrap");
      if (!seeded.ok()) {
        std::fprintf(stderr, "FAIL: seed commit: %s\n",
                     seeded.ToString().c_str());
        return 1;
      }
      store::VersionLog* raw_log = log->get();
      tree_store.SetPublishHook([raw_log](const serve::TreeSnapshot& snap) {
        (void)raw_log->Commit(snap.tree(), snap.version(), snap.note());
      });
      // Live mutations after the bootstrap (category curation).
      for (uint32_t round = 0; round < 3; ++round) {
        CategoryTree tree = tree_store.Current()->tree();
        const NodeId added =
            tree.AddCategory(tree.root(), "campaign" + std::to_string(round));
        tree.AssignItem(added, round);
        tree_store.Publish(std::move(tree),
                           "campaign " + std::to_string(round));
      }
      pre_crash_canon = Canon(tree_store.Current()->tree());
      pre_crash_version = (*log)->LatestVersion();
    }

    // "Second process": open + warm start, timed end to end.
    Timer timer;
    auto log = store::VersionLog::Open(dir);
    if (!log.ok()) {
      std::fprintf(stderr, "FAIL: reopen log: %s\n",
                   log.status().ToString().c_str());
      return 1;
    }
    serve::TreeStore tree_store(/*retain=*/2);
    auto report = store::WarmStart(log->get(), &tree_store);
    const double elapsed_us = timer.ElapsedSeconds() * 1e6;
    warm_us->Record(elapsed_us);
    if (!report.ok()) {
      std::fprintf(stderr, "FAIL: warm start: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    const bool same = tree_store.Current() != nullptr &&
                      Canon(tree_store.Current()->tree()) == pre_crash_canon;
    std::printf("warm start: v%llu in %.1f ms (%s)\n",
                static_cast<unsigned long long>(report->log_version),
                elapsed_us / 1e3, same ? "canonical match" : "MISMATCH");
    if (!same) {
      failures.push_back("warm start served a different canonical tree");
    }
    if (report->log_version != pre_crash_version) {
      failures.push_back("warm start landed on v" +
                         std::to_string(report->log_version) +
                         ", pre-crash log was v" +
                         std::to_string(pre_crash_version));
    }
  }

  // ---- (c) replica promotion under live traffic -------------------------
  {
    const std::string dir = base + "/failover";
    serve::TreeStore tree_store(/*retain=*/4);
    serve::ServeStats serve_stats;
    serve::RebuildScheduler scheduler(&tree_store, &serve_stats, &ds, sim);
    const serve::RebuildOutcome boot = scheduler.RebuildNow(ds.input);
    if (!boot.published) {
      std::fprintf(stderr, "FAIL: bootstrap publish: %s\n",
                   boot.status.ToString().c_str());
      return 1;
    }
    auto log_or = store::VersionLog::Open(dir + "/primary");
    if (!log_or.ok()) {
      std::fprintf(stderr, "FAIL: open primary log: %s\n",
                   log_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<store::VersionLog> primary = std::move(log_or).value();
    if (!primary
             ->Commit(tree_store.Current()->tree(),
                      tree_store.Current()->version(), "bootstrap")
             .ok()) {
      std::fprintf(stderr, "FAIL: seed primary log\n");
      return 1;
    }
    store::ReplicaSet replicas(primary.get());
    for (const char* name : {"replica-a", "replica-b"}) {
      auto replica = store::Replica::Open(name, dir + "/" + name);
      if (!replica.ok()) {
        std::fprintf(stderr, "FAIL: open %s: %s\n", name,
                     replica.status().ToString().c_str());
        return 1;
      }
      replicas.AddReplica(std::move(replica).value());
    }
    if (!replicas.SyncAll().ok()) {
      std::fprintf(stderr, "FAIL: initial replica sync\n");
      return 1;
    }
    store::VersionLog* raw_log = primary.get();
    store::ReplicaSet* raw_replicas = &replicas;
    tree_store.SetPublishHook(
        [raw_log, raw_replicas](const serve::TreeSnapshot& snap) {
          if (raw_log->Commit(snap.tree(), snap.version(), snap.note()).ok()) {
            (void)raw_replicas->ShipCommitted(snap.version());
          }
        });

    router::Router router(&tree_store, ds.engine.get());
    router.Start();

    const std::vector<data::Query> mix = BuildQueryMix(*ds.catalog);
    std::atomic<bool> done{false};
    std::atomic<uint64_t> answered{0}, shed{0};
    std::atomic<uint64_t> torn_reads{0}, internal_errors{0}, stalls{0};
    // Versions legally serveable at any point in the run: everything the
    // store has published (v1 plus the curation rounds plus the redirect).
    std::atomic<uint64_t> max_published{boot.published_version};

    const size_t kClients = 4;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(991 + c);
        while (!done.load(std::memory_order_acquire)) {
          router::RouteRequest request;
          request.query = mix[rng.NextBelow(mix.size())];
          request.deadline_seconds = 0.05;
          Timer op;
          const router::RouteResult result = router.Route(std::move(request));
          const double seconds = op.ElapsedSeconds();
          if (seconds > kMaxRouteSecondsBeforeStall) stalls.fetch_add(1);
          if (result.shed) {
            shed.fetch_add(1);
            continue;
          }
          answered.fetch_add(1);
          if (result.status.code() == StatusCode::kInternal ||
              result.status.code() == StatusCode::kDataLoss) {
            internal_errors.fetch_add(1);
          }
          // Torn-read check: every non-shed answer must carry a version the
          // store fully published (snapshot swap is atomic; a version
          // outside the published range would mean a half-visible tree).
          if (result.version == 0 ||
              result.version > max_published.load(std::memory_order_acquire)) {
            torn_reads.fetch_add(1);
          }
        }
      });
    }

    // Live curation traffic while clients route.
    for (uint32_t round = 0; round < 3; ++round) {
      CategoryTree tree = tree_store.Current()->tree();
      const NodeId added =
          tree.AddCategory(tree.root(), "live" + std::to_string(round));
      tree.AssignItem(added, round);
      max_published.fetch_add(1, std::memory_order_release);
      tree_store.Publish(std::move(tree), "live " + std::to_string(round));
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }

    // The primary dies: its log stops accepting commits and the serving
    // store detaches from it. Promote the best replica and redirect the
    // serving store to the promoted tree.
    const std::string last_primary_canon =
        Canon(tree_store.Current()->tree());
    const store::TreeVersion last_primary_version = primary->LatestVersion();
    Timer failover;
    tree_store.SetPublishHook(nullptr);  // Writers detach from the dead log.
    primary.reset();                     // Kill the primary.
    auto promoted = replicas.PromoteBest();
    if (!promoted.ok()) {
      std::fprintf(stderr, "FAIL: promotion: %s\n",
                   promoted.status().ToString().c_str());
      return 1;
    }
    const serve::TreeStore* promoted_store =
        promoted.value()->tree_store();
    // Redirect: the promoted replica's tree becomes the serving tree. This
    // is itself a publish, so routing traffic never sees a half state.
    max_published.fetch_add(1, std::memory_order_release);
    tree_store.Publish(promoted_store->Current()->tree(),
                       "failover to " + promoted.value()->name());
    const double failover_elapsed_us = failover.ElapsedSeconds() * 1e6;
    failover_us->Record(failover_elapsed_us);

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    done.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();
    router.Stop();

    const bool promoted_current =
        promoted.value()->LatestVersion() == last_primary_version &&
        Canon(promoted_store->Current()->tree()) == last_primary_canon;

    TableWriter table({"metric", "value"});
    table.AddRow({"answered", std::to_string(answered.load())});
    table.AddRow({"shed", std::to_string(shed.load())});
    table.AddRow({"torn_reads", std::to_string(torn_reads.load())});
    table.AddRow({"internal_errors", std::to_string(internal_errors.load())});
    table.AddRow({"stalls", std::to_string(stalls.load())});
    table.AddRow({"promoted", promoted.value()->name()});
    table.AddRow(
        {"promoted_version",
         std::to_string(promoted.value()->LatestVersion())});
    table.AddRow({"failover_ms",
                  TableWriter::Num(failover_elapsed_us / 1e3, 2)});
    std::printf("\n%s\n", table.ToAligned().c_str());
    bench::BenchReport::Get().AddTable("store_failover", table);

    if (answered.load() == 0) {
      failures.push_back("failover phase routed zero queries");
    }
    if (torn_reads.load() != 0) {
      failures.push_back(std::to_string(torn_reads.load()) + " torn reads");
    }
    if (internal_errors.load() != 0) {
      failures.push_back(std::to_string(internal_errors.load()) +
                         " internal routing errors during failover");
    }
    if (stalls.load() != 0) {
      failures.push_back(std::to_string(stalls.load()) +
                         " client calls stalled past " +
                         TableWriter::Num(kMaxRouteSecondsBeforeStall, 1) +
                         " s (sheds-never-stalls violated)");
    }
    if (!promoted_current) {
      failures.push_back(
          "promoted replica is not at the last committed primary state");
    }
  }

  std::filesystem::remove_all(base);
  if (!failures.empty()) {
    for (const std::string& failure : failures) {
      std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
    }
    return 1;
  }
  std::printf(
      "all gates passed: %d/%d kill trials exact, warm start canonical, "
      "failover with zero torn reads and no stalls\n",
      kKillTrials, kKillTrials);
  return 0;
}

}  // namespace oct

int main() { return oct::Run(); }
