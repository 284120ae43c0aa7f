// Online serving walkthrough: publish a built tree into the serving stack,
// answer navigation lookups from immutable snapshots, then watch the
// RebuildScheduler absorb a drifted query-log batch — readers keep serving
// the old version until the rebuilt tree is swapped in atomically, and the
// two revisions stay diffable for rollback.
//
// Rebuilds route through a delta::DeltaMaintainer (RebuildPolicy::builder),
// so batch absorption re-resolves only the components the batch actually
// touched, and live per-query churn (upsert a spiking tail query, pump)
// publishes a spliced tree in milliseconds while readers keep serving.
//
//   $ ./build/examples/online_store
//
// With OCT_EXPOSE_PORT set, the process additionally opens the exposition
// endpoint (0 = pick a free port) and, with OCT_EXPOSE_LINGER_SECONDS,
// keeps serving it after the walkthrough so an operator (or the CI smoke
// job) can scrape it:
//
//   $ OCT_EXPOSE_PORT=9187 OCT_EXPOSE_LINGER_SECONDS=30 ./online_store &
//   $ curl localhost:9187/metrics

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "core/serialization.h"
#include "data/datasets.h"
#include "delta/maintainer.h"
#include "obs/trace.h"
#include "router/query_parse.h"
#include "router/router.h"
#include "serve/exposition.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "store/replica.h"
#include "store/version_log.h"
#include "util/table_writer.h"

int main() {
  using namespace oct;

  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  data::Dataset ds = data::MakeDataset('A', sim, 0.08);

  serve::TreeStore store(/*retain=*/4);
  serve::ServeStats stats;

  // The incremental maintainer: scheduler rebuilds diff the offered batch
  // against its cumulative working set and re-resolve only the dirty
  // intersection-graph components; live traffic feeds its coalescing op
  // log directly.
  delta::DeltaMaintainer maintainer(&store, &stats, sim);

  serve::RebuildPolicy policy;
  policy.drift_tolerance = 0.01;  // Rebuild on a 1-point score drop.
  policy.builder = &maintainer;   // Route rebuilds through the delta path.
  serve::RebuildScheduler scheduler(&store, &stats, &ds, sim, policy);

  // Optional exposition endpoint: /metrics, /varz, /healthz, /tracez,
  // /slowz, /sloz, /statusz. The span ring feeds /tracez with the most
  // recent spans; tail sampling retains bad /route requests on /slowz;
  // static storage so it outlives every thread that might record into it.
  static obs::SpanRing span_ring(4096);
  serve::ExpositionOptions expose_options;
  const char* expose_port = std::getenv("OCT_EXPOSE_PORT");
  if (expose_port != nullptr) {
    expose_options.enabled = true;
    expose_options.port = std::atoi(expose_port);
    obs::SpanRing::InstallGlobal(&span_ring);
    obs::SetTracingEnabled(true);
  }
  // The query router: live user queries -> ranked category paths against
  // whatever snapshot is current. Mounted on the exposition as /route,
  // where each request is routed on the HTTP worker that accepted it.
  router::Router router(&store, ds.engine.get());
  router.Start();

  // Durable version log + two local replicas. Every publish below rides
  // along into the log (SetPublishHook after bootstrap) and ships to the
  // replicas; /statusz exposes the durability block and /store/record
  // serves framed records to replication fetchers.
  const std::string store_dir =
      std::filesystem::temp_directory_path() / "oct_online_store_log";
  std::filesystem::remove_all(store_dir);
  auto version_log = store::VersionLog::Open(store_dir + "/primary");
  if (!version_log.ok()) {
    std::printf("version log failed to open: %s\n",
                version_log.status().ToString().c_str());
    return 1;
  }
  store::ReplicaSet replicas(version_log->get());
  for (const char* name : {"replica-a", "replica-b"}) {
    auto replica = store::Replica::Open(name, store_dir + "/" + name);
    if (!replica.ok()) {
      std::printf("replica %s failed to open: %s\n", name,
                  replica.status().ToString().c_str());
      return 1;
    }
    replicas.AddReplica(std::move(replica).value());
  }

  serve::ServingExposition exposition(&store, &scheduler, &stats,
                                      expose_options, &router, &maintainer);
  exposition.AttachDurability(version_log->get(), &replicas);
  {
    const Status st = exposition.Start();
    if (!st.ok()) {
      std::printf("exposition failed to start: %s\n", st.ToString().c_str());
      return 1;
    }
    if (exposition.running()) {
      std::printf("exposition serving on http://127.0.0.1:%d "
                  "(/metrics /varz /healthz /tracez /slowz /sloz "
                  "/statusz /route)\n\n",
                  exposition.port());
    }
  }

  // --- Day 0: build from the current query log and publish v1. ----------
  const serve::RebuildOutcome boot = scheduler.RebuildNow(ds.input);
  if (!boot.published) {
    std::printf("bootstrap rebuild failed after %d attempt(s): %s\n",
                boot.attempts, boot.status.ToString().c_str());
    return 1;
  }
  std::printf("published v%llu: %zu categories, %zu items indexed "
              "(build %.3f s, score %.4f)\n\n",
              static_cast<unsigned long long>(boot.published_version),
              store.Current()->num_categories(),
              store.Current()->num_items_indexed(), boot.seconds,
              boot.candidate_score);

  // Seed the version log with the bootstrap tree, then hook the store so
  // every later publish (batch rebuild, delta splice, rollback) commits to
  // the log and ships to the replicas on the publisher's thread.
  {
    const Status seeded = (*version_log)
                              ->Commit(store.Current()->tree(),
                                       store.Current()->version(),
                                       "bootstrap");
    if (!seeded.ok()) {
      std::printf("version log seed failed: %s\n", seeded.ToString().c_str());
      return 1;
    }
    (void)replicas.SyncAll();
    store::VersionLog* log = version_log->get();
    store::ReplicaSet* set = &replicas;
    store.SetPublishHook([log, set](const serve::TreeSnapshot& snap) {
      if (log->Commit(snap.tree(), snap.version(), snap.note()).ok()) {
        (void)set->ShipCommitted(snap.version());
      }
    });
  }

  // --- Serving traffic: item breadcrumbs and label facets. --------------
  const auto snap = store.Current();
  std::printf("sample lookups against v%llu:\n",
              static_cast<unsigned long long>(snap->version()));
  size_t printed = 0;
  for (ItemId item = 0; printed < 4 && item < 5000; ++item) {
    const auto path = snap->LabeledPathOf(item);
    stats.RecordItemLookup(!path.empty());
    if (path.size() < 3) continue;  // Show the interesting, deep ones.
    std::printf("  item %u: ", item);
    for (size_t i = 1; i < path.size(); ++i) {
      std::printf("%s%s", i > 1 ? " > " : "",
                  path[i].empty() ? "(unlabeled)" : path[i].c_str());
    }
    const NodeId leaf = snap->PlacementsOf(item).front();
    std::printf("   [%zu items in subtree]\n", snap->SubtreeItemCount(leaf));
    ++printed;
  }

  // --- Live query routing: the front end a user-facing search box hits.
  // Each text query resolves to a result set through the engine, then the
  // router scores it against the current snapshot's categories. ----------
  std::printf("\nrouting sample queries against v%llu:\n",
              static_cast<unsigned long long>(store.CurrentVersion()));
  for (const char* text : {"nike", "shirt black", "adidas shoes"}) {
    const auto parsed = router::ParseQuery(text, *ds.catalog);
    if (!parsed.ok()) {
      std::printf("  \"%s\": %s\n", text, parsed.status().ToString().c_str());
      continue;
    }
    router::RouteRequest request;
    request.query = *parsed;
    request.top_k = 2;
    const router::RouteResult routed = router.Route(std::move(request));
    std::printf("  \"%s\" (%zu items):", text, routed.result_set_size);
    if (routed.ranked.empty()) {
      std::printf(" no category above the Jaccard floor (%s)\n",
                  routed.status.ToString().c_str());
      continue;
    }
    for (const router::RoutedCategory& category : routed.ranked) {
      std::printf("  [");
      for (size_t i = 1; i < category.path.size(); ++i) {
        std::printf("%s%s", i > 1 ? " > " : "",
                    category.path[i].empty() ? "(unlabeled)"
                                             : category.path[i].c_str());
      }
      std::printf(" j=%.2f]", category.jaccard);
    }
    std::printf("\n");
  }

  // --- Day 10: a fresh batch from a trend-heavy recent window — the kind
  // of input shift (new spike queries, dropped stale ones) a 90-day tree
  // scores noticeably worse on. ------------------------------------------
  data::DatasetOptions recent;
  recent.recent_window_only = true;
  recent.window_days = 10;
  const data::Dataset fresh = data::MakeDataset('A', sim, 0.08, recent);
  std::printf("\noffering a 10-day-window batch (%zu sets)...\n",
              fresh.input.num_sets());

  const serve::BatchDecision decision = scheduler.OfferBatch(fresh.input);
  std::printf("scheduler decision: %s\n", serve::BatchDecisionName(decision));

  if (decision == serve::BatchDecision::kUpToDate) {
    std::printf("served tree still scores within tolerance; no rebuild\n");
  } else {
    scheduler.WaitForRebuild();  // Readers would keep serving v1 meanwhile.
    const serve::RebuildOutcome outcome = scheduler.last_outcome();
    if (outcome.published) {
      std::printf("rebuilt and published v%llu in %.3f s "
                  "(score %.4f -> %.4f under the new batch)\n",
                  static_cast<unsigned long long>(outcome.published_version),
                  outcome.seconds, outcome.current_score,
                  outcome.candidate_score);
    } else {
      std::printf("candidate discarded: %s\n", outcome.reason.c_str());
    }
  }

  // The pre-rebuild snapshot is still alive and answering: zero downtime.
  std::printf("old snapshot v%llu still serves %zu categories to in-flight "
              "requests\n",
              static_cast<unsigned long long>(snap->version()),
              snap->num_categories());

  {
    const delta::DeltaApplyOutcome absorbed = maintainer.last_outcome();
    std::printf("delta path: batch dirtied %zu/%zu components "
                "(%zu of %zu sets re-resolved)\n",
                absorbed.dirty_components, absorbed.total_components,
                absorbed.sets_rebuilt, absorbed.sets_total);
  }

  // --- Live tail churn: a spiking query lands between batches. Feed the
  // maintainer's op log and pump — only the touched components re-resolve,
  // the spliced tree publishes atomically, readers never block. A tail
  // query (smallest intersection-graph component) spikes: the head
  // component comes straight from the component cache. ------------------
  {
    const delta::WorkingSet& working = maintainer.builder().working_set();
    const auto components = working.ComputeComponents();
    uint32_t tail_slot = components.members.front().front();
    size_t smallest = SIZE_MAX;
    for (const auto& members : components.members) {
      if (members.size() < smallest) {
        smallest = members.size();
        tail_slot = members.front();
      }
    }
    CandidateSet hot = working.set(tail_slot);
    hot.weight *= 3.0;  // The trend tripled overnight.
    const std::string label = hot.label.empty() ? "spiking-query" : hot.label;
    maintainer.UpsertQuery(label, std::move(hot));
    const Result<serve::TreeVersion> pumped = maintainer.PumpOnce();
    if (pumped.ok()) {
      const delta::DeltaApplyOutcome last = maintainer.last_outcome();
      std::printf("\nlive delta published v%llu: %zu/%zu components "
                  "re-resolved (%zu of %zu sets)\n",
                  static_cast<unsigned long long>(pumped.value()),
                  last.dirty_components, last.total_components,
                  last.sets_rebuilt, last.sets_total);
    } else {
      std::printf("\nlive delta failed (%s); Republish() would recover\n",
                  pumped.status().ToString().c_str());
    }
  }

  // --- Operator view: retained versions, diff, rollback. ----------------
  std::printf("\nretained versions:\n");
  TableWriter table({"version", "categories", "items", "build s", "note"});
  for (const auto& v : store.RetainedVersions()) {
    table.AddRow({std::to_string(v.version), std::to_string(v.num_categories),
                  std::to_string(v.num_items),
                  TableWriter::Num(v.build_seconds, 4), v.note});
  }
  std::printf("%s\n", table.ToAligned().c_str());

  if (store.CurrentVersion() >= 2) {
    const auto diff = store.Diff(1, store.CurrentVersion());
    if (diff.ok()) {
      std::printf("diff v1 -> v%llu: category overlap %.3f, item stability "
                  "%.3f, %zu novel / %zu dropped categories\n",
                  static_cast<unsigned long long>(store.CurrentVersion()),
                  diff->mean_category_overlap, diff->ItemStability(),
                  diff->novel_categories, diff->dropped_categories);
    }
    const auto rolled = store.Rollback(1);
    if (rolled.ok()) {
      stats.RecordPublish((*rolled)->version());
      stats.RecordRollback();
      std::printf("rolled back: v1's tree republished as v%llu\n",
                  static_cast<unsigned long long>((*rolled)->version()));
    }
  }

  // --- Durability: warm restart and replica failover. -------------------
  // Every publish above was committed to the version log by the publish
  // hook and shipped to both replicas. A "kill-free restart": a fresh
  // process (modeled by a second log handle and an empty TreeStore) warm
  // starts from the log and serves the exact same canonical tree, at the
  // same version, with no rebuild.
  std::printf("\nversion log: v%llu latest, %zu entries retained in %s\n",
              static_cast<unsigned long long>(
                  (*version_log)->LatestVersion()),
              (*version_log)->Lineage().size(), store_dir.c_str());
  {
    auto restarted_log = store::VersionLog::Open(store_dir + "/primary");
    if (restarted_log.ok()) {
      serve::TreeStore restarted_store(/*retain=*/2);
      const auto report =
          store::WarmStart(restarted_log->get(), &restarted_store);
      if (report.ok()) {
        const bool same =
            SerializeTree(restarted_store.Current()->tree()) ==
            SerializeTree(store.Current()->tree());
        std::printf("warm restart: serving v%llu from the log (%s)\n",
                    static_cast<unsigned long long>(report->log_version),
                    same ? "canonical match with the live process"
                         : "MISMATCH");
      }
    }
  }

  // Failover drill: the primary stops (writers detach from its log), the
  // best replica is promoted, and the serving store redirects to the
  // promoted tree — an atomic publish, so readers never see a half state.
  store.SetPublishHook(nullptr);
  const auto promoted = replicas.PromoteBest();
  if (promoted.ok()) {
    store.Publish(promoted.value()->tree_store()->Current()->tree(),
                  "failover to " + promoted.value()->name());
    std::printf("failover: promoted %s at v%llu; now serving v%llu\n",
                promoted.value()->name().c_str(),
                static_cast<unsigned long long>(
                    promoted.value()->LatestVersion()),
                static_cast<unsigned long long>(store.CurrentVersion()));
  } else {
    std::printf("failover: no promotable replica (%s)\n",
                promoted.status().ToString().c_str());
  }
  for (const store::ReplicaStatus& rs : replicas.Statuses()) {
    std::printf("  replica %-10s %-12s v%llu (lag %llu)\n", rs.name.c_str(),
                store::ReplicaStateName(rs.state),
                static_cast<unsigned long long>(rs.version),
                static_cast<unsigned long long>(rs.lag));
  }

  std::printf("\nstats: %s\n", stats.Snapshot().ToString().c_str());
  std::printf("router: %s\n", router.stats().Snapshot().ToString().c_str());
  std::printf("delta: %s\n", maintainer.stats().Snapshot().ToString().c_str());

  // Keep the exposition endpoint up for scrapers before exiting (CI smoke
  // job; manual curl sessions). The serving objects above stay live.
  const char* linger = std::getenv("OCT_EXPOSE_LINGER_SECONDS");
  if (exposition.running() && linger != nullptr) {
    const double seconds = std::strtod(linger, nullptr);
    std::printf("lingering %.0f s for scrapers on port %d...\n", seconds,
                exposition.port());
    std::fflush(stdout);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  exposition.Stop();
  return 0;
}
