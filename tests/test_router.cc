// oct::router tests: index-vs-oracle scoring identity (items placed on up
// to three branches of random trees included), snapshot pinning across
// publishes, touched/untouched node accounting, degradation
// to an empty ranking, Route() against the serial oracle, shedding (stopped
// router, deadline gone after resolve), unrouted reasons, monotone snapshot
// versions under concurrent publishes, stage histograms, trace ownership,
// and the /route HTTP endpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/datasets.h"
#include "data/query_log.h"
#include "fault/failpoint.h"
#include "obs/expose.h"
#include "obs/tail_sampler.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "random_trees.h"
#include "router/query_parse.h"
#include "router/route_index.h"
#include "router/router.h"
#include "serve/exposition.h"
#include "serve/rebuild_scheduler.h"
#include "serve/serve_stats.h"
#include "serve/tree_store.h"
#include "util/rng.h"

namespace oct {
namespace router {
namespace {

Similarity Sim() { return Similarity(Variant::kJaccardThreshold, 0.8); }

/// Dataset A at a small scale, built once for the whole suite.
data::Dataset& SharedDataset() {
  static data::Dataset* ds =
      new data::Dataset(data::MakeDataset('A', Sim(), 0.05));
  return *ds;
}

/// A tree built from the shared dataset, copied into per-test stores.
const CategoryTree& SharedTree() {
  static const CategoryTree* tree = [] {
    serve::TreeStore store(2);
    serve::ServeStats stats;
    serve::RebuildScheduler scheduler(&store, &stats, &SharedDataset(), Sim());
    const serve::RebuildOutcome outcome =
        scheduler.RebuildNow(SharedDataset().input);
    EXPECT_TRUE(outcome.published);
    return new CategoryTree(store.Current()->tree());
  }();
  return *tree;
}

/// Log-derived queries over the shared catalog (deterministic).
std::vector<data::Query> SampleQueries(size_t count) {
  data::QueryLogOptions options;
  options.num_queries = count;
  options.seed = 11;
  std::vector<data::Query> queries;
  for (const data::LoggedQuery& logged :
       data::GenerateQueryLog(*SharedDataset().catalog, options)) {
    queries.push_back(logged.query);
  }
  return queries;
}

/// Brute-force oracle: score every node (root excluded) against its full
/// item set, filter by the floor, sort by the router's total order.
std::vector<NodeScore> BruteForceTopK(const serve::TreeSnapshot& snapshot,
                                      const ItemSet& query, size_t top_k,
                                      double min_jaccard) {
  const CategoryTree& tree = snapshot.tree();
  const std::vector<ItemSet> sets = tree.ComputeItemSets();
  std::vector<NodeScore> out;
  for (size_t n = 0; n < sets.size(); ++n) {
    if (static_cast<NodeId>(n) == tree.root()) continue;
    const size_t inter = sets[n].IntersectionSize(query);
    if (inter == 0) continue;
    NodeScore score;
    score.node = static_cast<NodeId>(n);
    score.overlap = static_cast<uint32_t>(inter);
    score.jaccard = static_cast<double>(inter) /
                    static_cast<double>(query.size() + sets[n].size() - inter);
    score.containment =
        static_cast<double>(inter) / static_cast<double>(query.size());
    score.depth = static_cast<uint32_t>(snapshot.DepthOf(score.node));
    if (score.jaccard + 1e-12 >= min_jaccard) out.push_back(score);
  }
  std::sort(out.begin(), out.end(), [](const NodeScore& a, const NodeScore& b) {
    if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
    if (a.depth != b.depth) return a.depth > b.depth;
    return a.node < b.node;
  });
  if (top_k != 0 && out.size() > top_k) out.resize(top_k);
  return out;
}

void ExpectSameRanking(const std::vector<NodeScore>& expected,
                       const std::vector<NodeScore>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].node, actual[i].node) << "rank " << i;
    EXPECT_EQ(expected[i].overlap, actual[i].overlap) << "rank " << i;
    EXPECT_DOUBLE_EQ(expected[i].jaccard, actual[i].jaccard) << "rank " << i;
  }
}

/// Handmade nested tree: full sets are {a:0..9, a1:0..4, a2:5..9,
/// b:10..19, b1:10..13, c:20..21}.
CategoryTree HandmadeTree() {
  CategoryTree tree;
  const NodeId a = tree.AddCategory(tree.root(), "a");
  const NodeId a1 = tree.AddCategory(a, "a1");
  const NodeId a2 = tree.AddCategory(a, "a2");
  const NodeId b = tree.AddCategory(tree.root(), "b");
  const NodeId b1 = tree.AddCategory(b, "b1");
  const NodeId c = tree.AddCategory(tree.root(), "c");
  for (ItemId i = 0; i < 5; ++i) tree.AssignItem(a1, i);
  for (ItemId i = 5; i < 10; ++i) tree.AssignItem(a2, i);
  for (ItemId i = 10; i < 14; ++i) tree.AssignItem(b1, i);
  for (ItemId i = 14; i < 20; ++i) tree.AssignItem(b, i);
  for (ItemId i = 20; i < 22; ++i) tree.AssignItem(c, i);
  return tree;
}

/// Handmade tree in which item 0 is a direct item of two branches (bound
/// 2): full sets are {p:0..4, p1:0..2, p2:{0,3,4}, s:5..6}, so p holds 5
/// items, not the 6 its children's sizes add up to.
CategoryTree HandmadeTreeWithSharedItem() {
  CategoryTree tree;
  const NodeId p = tree.AddCategory(tree.root(), "p");
  const NodeId p1 = tree.AddCategory(p, "p1");
  const NodeId p2 = tree.AddCategory(p, "p2");
  const NodeId s = tree.AddCategory(tree.root(), "s");
  for (ItemId i : {0u, 1u, 2u}) tree.AssignItem(p1, i);
  for (ItemId i : {0u, 3u, 4u}) tree.AssignItem(p2, i);
  for (ItemId i : {5u, 6u}) tree.AssignItem(s, i);
  return tree;
}

class RouterTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FailPointRegistry::Default()->DisarmAll();
  }
};

// ---------------------------------------------------------------------------
// RouteIndex scoring
// ---------------------------------------------------------------------------

TEST_F(RouterTest, IndexMatchesBruteForceOnHandmadeTree) {
  struct Case {
    CategoryTree tree;
    size_t num_nodes;
    std::vector<ItemSet> queries;
  };
  const std::vector<Case> cases = {
      {HandmadeTree(), 7,
       {
           ItemSet{0, 1, 2, 3, 4},      // exactly a1
           ItemSet{0, 5, 10, 20},       // spread across subtrees
           ItemSet{14, 15, 16},         // only b's direct items
           ItemSet{21},                 // single item in c
           ItemSet{0, 1, 2, 100, 200},  // items beyond the tree universe
       }},
      {HandmadeTreeWithSharedItem(), 5,
       {
           ItemSet{0},                // the shared item alone
           ItemSet{0, 1, 2, 3, 4},    // exactly p
           ItemSet{0, 1, 3},          // both branches of p
           ItemSet{0, 5, 6},          // across p and s
           ItemSet{0, 3, 100, 200},   // items beyond the tree universe
       }},
  };
  for (const Case& c : cases) {
    serve::TreeStore store(2);
    const auto snapshot = store.Publish(CategoryTree(c.tree));
    const auto index = RouteIndex::Build(snapshot);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->num_nodes(), c.num_nodes);
    for (double t : {0.0, 0.2, 0.5}) {
      for (const ItemSet& query : c.queries) {
        std::vector<NodeScore> got;
        index->ScoreTopK(query, /*top_k=*/0, t, nullptr, &got);
        ExpectSameRanking(BruteForceTopK(*snapshot, query, 0, t), got);
      }
    }
  }
}

TEST_F(RouterTest, IndexMatchesBruteForceOnRandomTreesWithBoundsOneToThree) {
  for (uint32_t max_bound = 1; max_bound <= 3; ++max_bound) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("max bound " + std::to_string(max_bound) + ", seed " +
                   std::to_string(seed));
      const testing_trees::RandomTree rt =
          testing_trees::MakeRandomTree(100 * seed + max_bound, max_bound);
      serve::TreeStore store(2);
      const auto snapshot = store.Publish(CategoryTree(rt.tree));
      const auto index = RouteIndex::Build(snapshot);
      // Each category's own item set must rank it first at Jaccard 1.
      const CategoryTree& tree = snapshot->tree();
      for (NodeId v = 1; v < tree.num_nodes(); ++v) {
        const ItemSet query = tree.ItemSetOf(v);
        if (query.empty()) continue;
        std::vector<NodeScore> got;
        index->ScoreTopK(query, 0, 0.0, nullptr, &got);
        ExpectSameRanking(BruteForceTopK(*snapshot, query, 0, 0.0), got);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got.front().jaccard, 1.0) << "node " << v;
      }
      // Random queries, items beyond the tree's universe included.
      Rng rng(seed);
      for (int k = 0; k < 10; ++k) {
        std::vector<ItemId> items;
        for (size_t i = 0, n = 1 + rng.NextBelow(10); i < n; ++i) {
          items.push_back(static_cast<ItemId>(rng.NextBelow(40)));
        }
        const ItemSet query(std::move(items));
        std::vector<NodeScore> got;
        index->ScoreTopK(query, 0, 0.2, nullptr, &got);
        ExpectSameRanking(BruteForceTopK(*snapshot, query, 0, 0.2), got);
      }
    }
  }
}

TEST_F(RouterTest, PruningEngagesAndIsLossless) {
  serve::TreeStore store(2);
  const auto snapshot = store.Publish(CategoryTree(SharedTree()));
  const auto index = RouteIndex::Build(snapshot);

  const double relevance = 0.8;
  size_t total_pruned = 0;
  size_t compared = 0;
  for (const data::Query& query : SampleQueries(60)) {
    const ItemSet result_set =
        SharedDataset().engine->ResultSet(query, relevance);
    if (result_set.empty()) continue;
    std::vector<NodeScore> got;
    const ScoreStats stats =
        index->ScoreTopK(result_set, /*top_k=*/0, 0.3, nullptr, &got);
    total_pruned += stats.nodes_pruned;
    // Touched + untouched covers the whole tree: nothing silently skipped.
    EXPECT_EQ(stats.nodes_visited + stats.nodes_pruned, index->num_nodes());
    ExpectSameRanking(BruteForceTopK(*snapshot, result_set, 0, 0.3), got);
    ++compared;
  }
  EXPECT_GT(compared, 10u);
  // Only nodes sharing an item with R(q) are scored.
  EXPECT_GT(total_pruned, 0u);
}

TEST_F(RouterTest, ExpiredTokenDegradesToAnEmptyRanking) {
  serve::TreeStore store(2);
  const auto snapshot = store.Publish(CategoryTree(SharedTree()));
  const auto index = RouteIndex::Build(snapshot);

  const data::Query query = SampleQueries(5).front();
  const ItemSet result_set = SharedDataset().engine->ResultSet(query, 0.8);
  ASSERT_FALSE(result_set.empty());

  std::vector<NodeScore> full;
  index->ScoreTopK(result_set, 0, 0.0, nullptr, &full);
  ASSERT_FALSE(full.empty());

  // A live token scores exactly like none.
  const fault::CancelToken live = fault::CancelToken::WithDeadline(3600.0);
  std::vector<NodeScore> in_time;
  const ScoreStats timely =
      index->ScoreTopK(result_set, 0, 0.0, &live, &in_time);
  EXPECT_FALSE(timely.degraded);
  ExpectSameRanking(full, in_time);

  // An expired token degrades before the walk: no partial ranking.
  fault::CancelToken expired;
  expired.Cancel();
  std::vector<NodeScore> none = full;
  const ScoreStats cancelled =
      index->ScoreTopK(result_set, 0, 0.0, &expired, &none);
  EXPECT_TRUE(cancelled.degraded);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(cancelled.nodes_visited, 0u);
}

// ---------------------------------------------------------------------------
// Query parsing
// ---------------------------------------------------------------------------

TEST_F(RouterTest, ParseQueryAcceptsAllForms) {
  const data::Catalog& catalog = *SharedDataset().catalog;
  const auto numeric = ParseQuery("0:1,2:0", catalog);
  ASSERT_TRUE(numeric.ok());
  ASSERT_EQ(numeric->conjuncts.size(), 2u);
  EXPECT_EQ(numeric->conjuncts[0], (std::pair<uint16_t, uint16_t>{0, 1}));
  EXPECT_EQ(numeric->conjuncts[1], (std::pair<uint16_t, uint16_t>{2, 0}));

  // Named form: attribute name from the schema.
  const auto& schema = catalog.schema();
  const std::string named =
      schema.attributes[1].name + "=" + schema.attributes[1].values[0];
  const auto by_name = ParseQuery(named, catalog);
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->conjuncts[0],
            (std::pair<uint16_t, uint16_t>{1, 0}));

  // Bare word resolves against every vocabulary.
  const auto bare = ParseQuery(schema.attributes[0].values[2], catalog);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->conjuncts[0], (std::pair<uint16_t, uint16_t>{0, 2}));

  // '+' separates like a space (URL form).
  const auto mixed = ParseQuery(
      schema.attributes[0].values[0] + "+1:0", catalog);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->conjuncts.size(), 2u);
}

TEST_F(RouterTest, ParseQueryRejectsGarbage) {
  const data::Catalog& catalog = *SharedDataset().catalog;
  EXPECT_FALSE(ParseQuery("", catalog).ok());
  EXPECT_FALSE(ParseQuery("  ,+ ", catalog).ok());
  EXPECT_FALSE(ParseQuery("definitely-not-a-value", catalog).ok());
  EXPECT_FALSE(ParseQuery("999:0", catalog).ok());
  EXPECT_FALSE(ParseQuery("0:9999", catalog).ok());
  EXPECT_FALSE(ParseQuery("notanattr=nike", catalog).ok());
}

// ---------------------------------------------------------------------------
// Router serving loop
// ---------------------------------------------------------------------------

TEST_F(RouterTest, RouteOnAStoppedRouterSheds) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  RouteRequest request;
  request.query = SampleQueries(1).front();

  // Never started, then started and stopped: both shed without scoring.
  for (int phase = 0; phase < 2; ++phase) {
    const RouteResult result = router.Route(request);
    EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(result.shed);
    EXPECT_TRUE(result.ranked.empty());
    EXPECT_EQ(result.version, 0u);
    router.Start();
    EXPECT_TRUE(router.running());
    EXPECT_TRUE(router.Route(request).status.ok());
    router.Stop();
    EXPECT_FALSE(router.running());
  }
  // Only the two admitted requests count as traffic.
  const RouterStats& stats = router.stats();
  EXPECT_EQ(stats.requests.Value(), 2u);
  EXPECT_EQ(stats.routed.Value() + stats.unrouted.Value(), 2u);
  EXPECT_EQ(stats.shed_deadline.Value(), 0u);
}

TEST_F(RouterTest, RouteWithoutPublishedTreeFailsCleanly) {
  serve::TreeStore store(2);
  Router router(&store, SharedDataset().engine.get());
  router.Start();
  RouteRequest request;
  request.query = SampleQueries(1).front();
  const RouteResult result = router.Route(std::move(request));
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(result.ranked.empty());
  router.Stop();
}

TEST_F(RouterTest, RouteMatchesSerialOracle) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.min_jaccard = 0.05;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  size_t routed = 0;
  size_t answers = 0;
  for (const data::Query& query : SampleQueries(50)) {
    RouteRequest request;
    request.query = query;
    const RouteResult live = router.Route(request);
    const RouteResult serial = router.RouteSerial(request);
    answers += 2;
    ASSERT_TRUE(live.status.ok());
    ASSERT_EQ(live.status.code(), serial.status.code());
    EXPECT_EQ(live.version, serial.version);
    ASSERT_EQ(live.ranked.size(), serial.ranked.size());
    for (size_t i = 0; i < live.ranked.size(); ++i) {
      EXPECT_EQ(live.ranked[i].node, serial.ranked[i].node);
      EXPECT_DOUBLE_EQ(live.ranked[i].jaccard, serial.ranked[i].jaccard);
      EXPECT_EQ(live.ranked[i].path, serial.ranked[i].path);
    }
    if (!live.ranked.empty()) ++routed;
  }
  EXPECT_GT(routed, 0u);
  EXPECT_LT(routed, 50u);
  // Every answer above reached both stages, so each stage histogram holds
  // exactly one sample per answer, from either entry point.
  EXPECT_EQ(router.stats().resolve_us.Count(), answers);
  EXPECT_EQ(router.stats().score_us.Count(), answers);
  EXPECT_EQ(router.stats().route_us.Count(), answers);
  // Only Route's answers are outcomes: the oracle is a probe, not traffic.
  const RouterStats& stats = router.stats();
  EXPECT_EQ(stats.requests.Value(), 50u);
  EXPECT_EQ(stats.routed.Value(), routed);
  EXPECT_EQ(stats.unrouted.Value(), 50u - routed);
  router.Stop();
}

TEST_F(RouterTest, ConcurrentRoutesSeeMonotoneVersionsUnderPublishes) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()), "v1");
  Router router(&store, SharedDataset().engine.get());
  router.Start();

  // Every published tree is the same tree, so each query's oracle ranking
  // holds at every version the store goes through.
  const std::vector<data::Query> queries = SampleQueries(12);
  std::vector<RouteResult> oracle;
  for (const data::Query& query : queries) {
    RouteRequest request;
    request.query = query;
    oracle.push_back(router.RouteSerial(request));
  }

  constexpr size_t kThreads = 3;
  constexpr int kRounds = 20;
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<serve::TreeVersion>> versions(kThreads);
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> routers;
  for (size_t t = 0; t < kThreads; ++t) {
    routers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          RouteRequest request;
          request.query = queries[q];
          const RouteResult result = router.Route(request);
          versions[t].push_back(result.version);
          if (!result.status.ok() ||
              result.ranked.size() != oracle[q].ranked.size()) {
            ++mismatches[t];
            continue;
          }
          for (size_t i = 0; i < result.ranked.size(); ++i) {
            if (result.ranked[i].node != oracle[q].ranked[i].node ||
                result.ranked[i].jaccard != oracle[q].ranked[i].jaccard ||
                result.ranked[i].path != oracle[q].ranked[i].path) {
              ++mismatches[t];
              break;
            }
          }
        }
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  // The publisher keeps going until every router thread is done, so the
  // store flips versions under the whole routing window.
  std::atomic<bool> routed_all{false};
  std::thread publisher([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 100 || !routed_all.load(); ++i) {
      store.Publish(CategoryTree(SharedTree()), "spin");
    }
  });
  go.store(true, std::memory_order_release);
  for (std::thread& t : routers) t.join();
  routed_all.store(true);
  publisher.join();
  router.Stop();

  EXPECT_GE(store.CurrentVersion(), 101u);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    ASSERT_EQ(versions[t].size(), queries.size() * kRounds);
    // Each request pins one snapshot; a later request on the same thread
    // never sees an older tree than an earlier one did.
    for (size_t i = 0; i < versions[t].size(); ++i) {
      EXPECT_GE(versions[t][i], 1u);
      if (i > 0) {
        EXPECT_GE(versions[t][i], versions[t][i - 1]) << i;
      }
    }
  }
}

TEST_F(RouterTest, DeadlineExpiredDuringResolveIsShedNotScored) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  router.Start();

  // The resolve stage stalls past the request's 20 ms budget.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.resolve", "delay:60:1:x1")
                  .ok());
  RouteRequest hurried;
  hurried.query = SampleQueries(1).front();
  hurried.deadline_seconds = 0.02;
  const RouteResult result = router.Route(hurried);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.shed);
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.ranked.empty());
  EXPECT_GT(result.resolve_seconds, 0.0);
  EXPECT_EQ(result.score_seconds, 0.0);
  EXPECT_EQ(result.score_stats.nodes_visited, 0u);
  const RouterStats& stats = router.stats();
  EXPECT_EQ(stats.shed_deadline.Value(), 1u);
  EXPECT_EQ(stats.routed.Value() + stats.unrouted.Value(), 0u);
  EXPECT_EQ(router.stats().resolve_us.Count(), 1u);
  EXPECT_EQ(router.stats().score_us.Count(), 0u);

  // The failpoint was one-shot: the same budget now routes normally.
  EXPECT_TRUE(router.Route(hurried).status.ok());
  router.Stop();
}

TEST_F(RouterTest, DeadlineExpiredWhileScoringDegradesUnranked) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  RouterOptions options;
  options.min_jaccard = 0.0;
  Router router(&store, SharedDataset().engine.get(), options);
  router.Start();

  // The score stage stalls past the request's 20 ms budget after the shed
  // check, so scoring starts with the deadline already gone.
  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.score", "delay:60:1:x1")
                  .ok());
  RouteRequest request;
  request.query = SampleQueries(1).front();
  request.deadline_seconds = 0.02;
  const RouteResult degraded = router.Route(request);
  EXPECT_EQ(degraded.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.shed);
  EXPECT_TRUE(degraded.ranked.empty());
  const RouterStats& stats = router.stats();
  EXPECT_EQ(stats.degraded.Value(), 1u);
  // A degraded answer is neither routed nor unrouted.
  EXPECT_EQ(stats.routed.Value() + stats.unrouted.Value(), 0u);

  // The failpoint was one-shot: the same budget now ranks.
  const RouteResult full = router.Route(request);
  ASSERT_TRUE(full.status.ok());
  EXPECT_FALSE(full.ranked.empty());
  EXPECT_EQ(stats.degraded.Value(), 1u);
  EXPECT_EQ(stats.routed.Value(), 1u);
  router.Stop();
}

/// Every router counter by name.
std::map<std::string, uint64_t> Counters(const Router& router) {
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, value] :
       router.stats().registry().CounterValues()) {
    counters[name] = value;
  }
  return counters;
}

TEST_F(RouterTest, UnroutedReasonsSumToUnrouted) {
  // A high floor leaves many answers unranked; a root-only tree places no
  // item at all.
  struct Case {
    CategoryTree tree;
    double min_jaccard;
  };
  for (const Case& c : {Case{CategoryTree(SharedTree()), 0.9},
                        Case{CategoryTree(), 0.05}}) {
    serve::TreeStore store(2);
    store.Publish(CategoryTree(c.tree));
    RouterOptions options;
    options.min_jaccard = c.min_jaccard;
    Router router(&store, SharedDataset().engine.get(), options);
    router.Start();
    for (const data::Query& query : SampleQueries(200)) {
      RouteRequest request;
      request.query = query;
      ASSERT_TRUE(router.Route(request).status.ok());
    }
    router.Stop();

    std::map<std::string, uint64_t> counters = Counters(router);
    const uint64_t unrouted = counters["router.unrouted"];
    const uint64_t empty = counters["router.unrouted_empty_result_set"];
    const uint64_t unplaced = counters["router.unrouted_unplaced"];
    const uint64_t misc = counters["router.unrouted_misc_dominated"];
    const uint64_t below = counters["router.unrouted_below_floor"];
    EXPECT_EQ(empty + unplaced + misc + below, unrouted);
    EXPECT_EQ(router.stats().unrouted.Value(), unrouted);
    EXPECT_GT(empty, 0u);
    if (c.tree.num_nodes() == 1) {
      EXPECT_EQ(unrouted, 200u);
      EXPECT_EQ(unplaced, unrouted - empty);
    } else {
      // On dataset A's tree every sampled result set has a placed item,
      // and its misc category holds much of the catalog.
      EXPECT_EQ(unplaced, 0u);
      EXPECT_GT(misc, 0u);
      EXPECT_GT(below, 0u);
    }
  }
}

TEST_F(RouterTest, InjectedResolveAndScoreErrorsAreCounted) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  router.Start();
  RouteRequest request;
  request.query = SampleQueries(1).front();

  ASSERT_TRUE(fault::FailPointRegistry::Default()
                  ->Arm("router.resolve", "error")
                  .ok());
  EXPECT_EQ(router.Route(request).status.code(), StatusCode::kInternal);
  fault::FailPointRegistry::Default()->DisarmAll();

  ASSERT_TRUE(
      fault::FailPointRegistry::Default()->Arm("router.score", "error").ok());
  EXPECT_EQ(router.Route(request).status.code(), StatusCode::kInternal);
  fault::FailPointRegistry::Default()->DisarmAll();

  EXPECT_EQ(router.stats().errors.Value(), 2u);
  EXPECT_TRUE(router.Route(request).status.ok());  // Recovers when disarmed.
  // Stage histograms count only the answers that reached the stage: the
  // score error and the recovery resolved; only the recovery scored.
  EXPECT_EQ(router.stats().resolve_us.Count(), 2u);
  EXPECT_EQ(router.stats().score_us.Count(), 1u);
  EXPECT_EQ(router.stats().route_us.Count(), 3u);
  router.Stop();
}

TEST_F(RouterTest, IndexPinsItsSnapshotAcrossAPublish) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  router.Start();
  RouteRequest request;
  request.query = SampleQueries(1).front();
  const ItemSet result_set =
      SharedDataset().engine->ResultSet(request.query, 0.8);

  const auto index_v1 = router.CurrentIndex();
  ASSERT_NE(index_v1, nullptr);
  std::vector<NodeScore> before;
  index_v1->ScoreTopK(result_set, 0, 0.0, nullptr, &before);
  const RouteResult answer_v1 = router.Route(request);
  ASSERT_TRUE(answer_v1.status.ok());
  EXPECT_EQ(answer_v1.version, index_v1->version());

  // Two publishes push v1 out of the store's retention; the index still
  // pins its snapshot and scores against it as before.
  store.Publish(CategoryTree(SharedTree()), "v2");
  const auto v3 = store.Publish(CategoryTree(SharedTree()), "v3");
  EXPECT_EQ(index_v1->snapshot().version(), index_v1->version());
  std::vector<NodeScore> after;
  index_v1->ScoreTopK(result_set, 0, 0.0, nullptr, &after);
  ExpectSameRanking(before, after);

  // The next answer pins the new version.
  const RouteResult answer_v3 = router.Route(request);
  ASSERT_TRUE(answer_v3.status.ok());
  EXPECT_EQ(answer_v3.version, v3->version());
  EXPECT_EQ(router.CurrentIndex()->version(), v3->version());
  router.Stop();
}

TEST_F(RouterTest, RouteSpanCarriesTheCallersTraceOrAMintedOne) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  router.Start();
  RouteRequest request;
  request.query = SampleQueries(1).front();

  obs::ClearSpans();
  obs::SetTracingEnabled(true);
  // A caller with an installed context (the HTTP ingress) keeps it.
  const obs::TraceContext ctx = obs::StartRequestTrace();
  RouteResult callers;
  {
    obs::TraceContextScope scope(ctx);
    callers = router.Route(request);
  }
  // A caller without one gets a trace the router mints.
  const RouteResult minted = router.Route(request);
  obs::SetTracingEnabled(false);
  router.Stop();

  ASSERT_TRUE(callers.status.ok());
  ASSERT_TRUE(minted.status.ok());
  EXPECT_EQ(callers.trace_id, ctx.trace_id);
  EXPECT_NE(minted.trace_id, 0u);
  EXPECT_NE(minted.trace_id, ctx.trace_id);
  EXPECT_FALSE(obs::CurrentTraceContext().valid());  // Nothing leaked.
  size_t callers_spans = 0;
  size_t minted_spans = 0;
  for (const obs::SpanEvent& e : obs::CollectSpans()) {
    if (std::string(e.name) != "router/route") continue;
    if (e.trace_id == ctx.trace_id) ++callers_spans;
    if (e.trace_id == minted.trace_id) ++minted_spans;
  }
  EXPECT_EQ(callers_spans, 1u);
  EXPECT_EQ(minted_spans, 1u);
}

// ---------------------------------------------------------------------------
// HTTP integration
// ---------------------------------------------------------------------------

TEST_F(RouterTest, HttpRequestKeepsQueryStringAndDecodesParams) {
  const auto parsed = obs::ParseHttpRequest(
      "GET /route?q=0%3A1+2:0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->path, "/route");
  EXPECT_EQ(parsed->query, "q=0%3A1+2:0&k=3");
  EXPECT_EQ(obs::HttpQueryParam(parsed->query, "q"), "0:1 2:0");
  EXPECT_EQ(obs::HttpQueryParam(parsed->query, "k"), "3");
  EXPECT_EQ(obs::HttpQueryParam(parsed->query, "absent"), "");
  EXPECT_EQ(obs::HttpQueryParam("", "q"), "");
}

TEST_F(RouterTest, ExpositionServesRouteEndpoint) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  router.Start();
  serve::ServingExposition exposition(&store, nullptr, nullptr, {}, &router);

  // Routed answer: 200 with a ranked array and the snapshot version.
  const std::string ok = exposition.server()->HandleRequest(
      "GET /route?q=0:0&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"ranked\""), std::string::npos);
  EXPECT_NE(ok.find("\"version\":1"), std::string::npos);

  // Missing and malformed q: client errors, not 500s.
  EXPECT_NE(exposition.server()
                ->HandleRequest("GET /route HTTP/1.1\r\n\r\n")
                .find("400"),
            std::string::npos);
  EXPECT_NE(exposition.server()
                ->HandleRequest("GET /route?q=zzzznope HTTP/1.1\r\n\r\n")
                .find("400"),
            std::string::npos);

  // deadline_ms must be a finite number of milliseconds within a day and k
  // a non-negative integer, parsed whole; anything else is a client error.
  for (const std::string params :
       {"deadline_ms=1e13", "deadline_ms=inf", "deadline_ms=nan",
        "deadline_ms=-1", "deadline_ms=abc", "deadline_ms=5ms", "k=-1",
        "k=x", "k=3.5"}) {
    const std::string response = exposition.server()->HandleRequest(
        "GET /route?q=0:0&" + params + " HTTP/1.1\r\n\r\n");
    EXPECT_NE(response.find("400 Bad Request"), std::string::npos)
        << params << ": " << response;
  }
  const std::string bounded = exposition.server()->HandleRequest(
      "GET /route?q=0:0&deadline_ms=5&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(bounded.find("200 OK"), std::string::npos) << bounded;
  const std::string day = exposition.server()->HandleRequest(
      "GET /route?q=0:0&deadline_ms=86400000 HTTP/1.1\r\n\r\n");
  EXPECT_NE(day.find("200 OK"), std::string::npos) << day;

  // /statusz carries the router block; /healthz notes the running router.
  const std::string statusz =
      exposition.server()->HandleRequest("GET /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(statusz.find("\"router\""), std::string::npos);
  const obs::HealthReport health = exposition.Health();
  EXPECT_TRUE(health.healthy);
  EXPECT_NE(health.detail.find("router running"), std::string::npos);

  // A stopped router flips health: /route would only serve errors.
  router.Stop();
  EXPECT_FALSE(exposition.Health().healthy);
  const std::string shed = exposition.server()->HandleRequest(
      "GET /route?q=0:0 HTTP/1.1\r\n\r\n");
  EXPECT_NE(shed.find("503"), std::string::npos) << shed;
}

TEST_F(RouterTest, TailSamplingKeepsOnlyBadRequestsEndToEnd) {
  serve::TreeStore store(2);
  store.Publish(CategoryTree(SharedTree()));
  Router router(&store, SharedDataset().engine.get());
  router.Start();
  // Huge slow threshold: only shed/degraded/errored requests promote, so
  // the clean-request phase below cannot flake on a slow CI machine.
  serve::ExpositionOptions opts;
  opts.slow_threshold_us = 1e9;
  serve::ServingExposition exposition(&store, nullptr, nullptr, opts,
                                      &router);
  obs::TailSampler* sampler = obs::TailSampler::Global();
  ASSERT_NE(sampler, nullptr);  // Installed by the exposition at ctor.

  // Fast clean route: 200 with the trace id echoed in the body, but the
  // tail verdict discards it — /slowz stays empty.
  const std::string ok = exposition.server()->HandleRequest(
      "GET /route?q=0:0&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("\"trace_id\":\""), std::string::npos) << ok;
  EXPECT_GE(sampler->traces_discarded(), 1u);
  const std::string clean_slowz =
      exposition.server()->HandleRequest("GET /slowz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(clean_slowz.find("\"reason\""), std::string::npos) << clean_slowz;

  // Shed route (router stopped): promoted with its query text and reason.
  router.Stop();
  const std::string shed = exposition.server()->HandleRequest(
      "GET /route?q=0:0&k=3 HTTP/1.1\r\n\r\n");
  EXPECT_NE(shed.find("503"), std::string::npos) << shed;
  EXPECT_GE(sampler->traces_promoted(), 1u);
  const std::string slowz =
      exposition.server()->HandleRequest("GET /slowz HTTP/1.1\r\n\r\n");
  EXPECT_NE(slowz.find("\"reason\":\"shed\""), std::string::npos) << slowz;
  EXPECT_NE(slowz.find("0:0"), std::string::npos) << slowz;
  // /statusz surfaces the tail-sampling ledger.
  const std::string statusz =
      exposition.server()->HandleRequest("GET /statusz HTTP/1.1\r\n\r\n");
  EXPECT_NE(statusz.find("\"tail_sampling\""), std::string::npos) << statusz;
}

}  // namespace
}  // namespace router
}  // namespace oct
