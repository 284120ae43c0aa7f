// The repository benchmark: one process runs one named workload from a
// seed, checks the program's outputs, and prints every end-to-end metric
// (or, with --trace 1, every per-layer metric) as the last line of stdout.
// run.py builds this binary from the checkout and invokes it.
//
//   perfbench --workload <build_full|route_zipf|churn_live> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> [--trace-file <f>]
//
// Workloads (why each exists is recorded in BENCHMARK.json; README.md
// defines every metric):
//   build_full  D-shaped electronics catalogs (96k items, ~3.5k raw logged
//               queries): three raw logs go to published trees committed to
//               a VersionLog, through the calls RebuildScheduler's default
//               path makes (BuildOctInput -> ItemSetIndex::Build ->
//               ctcr::BuildCategoryTree -> ScoreTree -> TreeStore::Publish
//               with the WarmStart hook attached).
//   route_zipf  C-shaped fashion catalog (27k items): two connections run a
//               closed loop of /route requests over loopback HTTP, drawn
//               Zipf(1.05) from independent mixes of 600 logged queries.
//   churn_live  The same catalog shape seeded through DeltaMaintainer: one
//               2-op tail-churn batch is pumped every 200 ms while two
//               connections route queries drawn uniformly from 2400.
//
// Every workload reports every end-to-end metric: each also builds and
// publishes trees, routes over HTTP, and ends by reopening its version log
// in a fresh serving stack. Each layer is timed only from outside, through
// the public functions named in the per-layer table; the library is not
// modified.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/existing_tree.h"
#include "core/category_tree.h"
#include "core/scoring.h"
#include "core/serialization.h"
#include "core/similarity.h"
#include "ctcr/ctcr.h"
#include "data/catalog.h"
#include "data/preprocess.h"
#include "data/query_log.h"
#include "data/search_engine.h"
#include "delta/maintainer.h"
#include "kernel/item_set_index.h"
#include "obs/export.h"
#include "obs/expose.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "router/query_parse.h"
#include "router/route_index.h"
#include "router/router.h"
#include "serve/exposition.h"
#include "serve/tree_store.h"
#include "stats.h"
#include "store/version_log.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using oct::Timer;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Counts, not durations, wherever a metric
// depends on them, so every run of a workload does the same work.
// ---------------------------------------------------------------------------

/// Set-ups per run of route_zipf and churn_live; setup_s is their median.
/// These workloads also take build_s, tree_score and routed_frac from the
/// trees their set-ups build.
constexpr int kSetups = 5;
/// build_full runs kBuilds rounds of kRoundSetups set-ups each (input
/// generation and a serving stack only, tens of milliseconds each) and
/// builds the raw log of each round's last set-up. Spreading the set-ups
/// over the rounds makes their median sample the host at many moments of
/// the run, not during one stretch of a second.
constexpr int kBuilds = 3;
constexpr int kRoundSetups = 5;
/// Route connections of every closed loop.
constexpr int kConnections = 2;
/// Zipf traffic: kZipfMixes independent Zipf(1.05) mixes of kZipfDistinct
/// logged queries each; uniform traffic: one mix of kUniformDistinct.
constexpr size_t kZipfMixes = 25;
constexpr size_t kZipfDistinct = 600;
constexpr size_t kUniformDistinct = 2400;
/// Warm-up requests per connection before any route is timed.
constexpr int kWarmupPerConnection = 600;
/// build_full routes this many requests per connection over each D tree.
constexpr int kBuildRoutePerConnection = 500;
/// Seeded sample answered both over HTTP and by Router::RouteSerial.
constexpr size_t kOracleSample = 600;
/// routed_frac is the mean over a run's trees of the routed share of a
/// sample this large.
constexpr size_t kRoutedSample = 400;
/// Serial route-ladder sample (traced runs); each rung is timed
/// kLadderReps times per query and the fastest kept.
constexpr size_t kLadderSample = 200;
constexpr int kLadderReps = 3;
/// churn_live: one batch of kChurnOps ops every kChurnCadence.
constexpr size_t kChurnOps = 2;
constexpr auto kChurnCadence = std::chrono::milliseconds(200);
/// Route figures count what ran while the host stole least. Steal is read
/// every kStealSlice; a round trip takes the steal of the slices it
/// overlapped. p50 and p99 take every round trip that ran with no steal, and
/// never fewer than kQuietShare of the window or kQuietMin (ten beyond p99),
/// the lowest-steal ones first; throughput takes the slices the same way.
constexpr auto kStealSlice = std::chrono::milliseconds(100);
constexpr double kQuietShare = 0.25;
constexpr size_t kQuietMin = 1000;
/// Publishes of the same tree after each timed build (build_full) or
/// bootstrap build (route_zipf); publish_p50_ms is the median over these
/// and the builds' own publishes.
constexpr int kRepublishes = 4;
/// Restarts per run; restart_ms is their median. Between two restarts each
/// connection routes kRestartGapPerConnection requests, so the restarts too
/// are spread over a few seconds of the run.
constexpr int kRestarts = 15;
/// restart_ms and churn_live's publish_p50_ms are medians over the restarts
/// or pumps that ran with no host steal, and over never fewer than
/// kQuietShare of them or kQuietEvents, the lowest-steal ones first.
constexpr size_t kQuietEvents = 5;
constexpr int kRestartGapPerConnection = 50;
/// delta_rebuild's score epsilon between a spliced and a batch tree.
constexpr double kScoreEpsilon = 0.05;
/// Share of a mix taken by its most frequent queries (measured repetition).
constexpr size_t kHeadQueries = 32;
constexpr double kRelevance = 0.8;

oct::Similarity Sim() {
  return oct::Similarity(oct::Variant::kJaccardThreshold, 0.8);
}

/// Catalog shape at the default bench scale (0.08 of datasets C and D).
struct Shape {
  bool electronics;
  size_t items;
  size_t raw_queries;
};
constexpr Shape kShapeD{true, 96'000, 3'520};
constexpr Shape kShapeC{false, 27'200, 536};

std::string ReadFileText(const char* path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Host CPU steal share from construction to Share(), around one timed
/// operation.
class StealMeter {
 public:
  StealMeter() : before_(ParseProcStat(ReadFileText("/proc/stat"))) {}

  double Share() const {
    const auto after = ParseProcStat(ReadFileText("/proc/stat"));
    return before_ && after ? StealShare(*before_, *after) : 0.0;
  }

 private:
  std::optional<CpuTicks> before_;
};

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Seeded inputs, generated through the public data functions (the registry's
// TryMakeDataset pins its own seeds).
// ---------------------------------------------------------------------------

struct Inputs {
  std::unique_ptr<oct::data::Catalog> catalog;
  std::unique_ptr<oct::data::SearchEngine> engine;
  oct::CategoryTree existing_tree;
  std::vector<oct::data::LoggedQuery> log;
};

Inputs MakeInputs(const Shape& shape, uint64_t seed) {
  Inputs in;
  in.catalog =
      std::make_unique<oct::data::Catalog>(oct::data::Catalog::Generate(
          shape.electronics ? oct::data::ElectronicsSchema()
                            : oct::data::FashionSchema(),
          shape.items, SubSeed(seed, 1)));
  oct::data::SearchOptions search;
  search.seed = SubSeed(seed, 2);
  search.top_k = std::clamp<size_t>(shape.items / 60, 60, 800);
  in.engine =
      std::make_unique<oct::data::SearchEngine>(in.catalog.get(), search);
  in.existing_tree = oct::baselines::BuildExistingTree(*in.catalog);
  oct::data::QueryLogOptions log;
  log.num_queries = shape.raw_queries;
  log.seed = SubSeed(seed, 3);
  log.top_query_daily =
      std::max(1'000.0, 2.5 * static_cast<double>(shape.raw_queries));
  in.log = oct::data::GenerateQueryLog(*in.catalog, log);
  return in;
}

/// The unambiguous attr:value text form of a query, as /route accepts it.
std::string QueryText(const oct::data::Query& query) {
  std::string text;
  for (const auto& [attr, value] : query.conjuncts) {
    if (!text.empty()) text += ',';
    text += std::to_string(attr) + ':' + std::to_string(value);
  }
  return text;
}

/// One mix of live traffic: distinct logged queries in popularity order,
/// drawn Zipf by rank or uniformly.
struct TrafficMix {
  std::vector<std::string> texts;
  std::optional<oct::ZipfSampler> zipf;

  size_t Draw(oct::Rng* rng) const {
    return zipf ? zipf->Sample(rng) : rng->NextBelow(texts.size());
  }
};

/// A workload's traffic: independent mixes that a window walks through in
/// equal sub-windows. Under a Zipf mix a few head queries carry most
/// requests, so one mix would make a run's latency the cost of whichever
/// queries its seed put at the head; many mixes per run average that out
/// while each sub-window keeps the mix's repetition.
struct Traffic {
  std::vector<TrafficMix> mixes;

  /// A query drawn across all mixes (check and ladder samples).
  const std::string& Draw(oct::Rng* rng) const {
    const TrafficMix& mix = mixes[rng->NextBelow(mixes.size())];
    return mix.texts[mix.Draw(rng)];
  }
};

TrafficMix MakeMix(const oct::data::Catalog& catalog, size_t distinct,
                   bool zipf, uint64_t seed) {
  oct::data::QueryLogOptions options;
  options.num_queries = distinct;
  options.paraphrase_fraction = 0.0;  // Paraphrases share one /route text.
  options.seed = seed;
  std::vector<oct::data::LoggedQuery> log =
      oct::data::GenerateQueryLog(catalog, options);
  std::stable_sort(log.begin(), log.end(),
                   [](const oct::data::LoggedQuery& a,
                      const oct::data::LoggedQuery& b) {
                     return a.AverageDaily() > b.AverageDaily();
                   });
  TrafficMix mix;
  for (const auto& entry : log) mix.texts.push_back(QueryText(entry.query));
  if (zipf) mix.zipf.emplace(mix.texts.size(), options.zipf_exponent);
  return mix;
}

/// Zipf traffic: kZipfMixes mixes of kZipfDistinct queries. Uniform
/// traffic: one mix of kUniformDistinct queries.
Traffic MakeTraffic(const oct::data::Catalog& catalog, bool zipf,
                    uint64_t seed) {
  Traffic traffic;
  const size_t mixes = zipf ? kZipfMixes : 1;
  for (size_t m = 0; m < mixes; ++m) {
    traffic.mixes.push_back(MakeMix(catalog,
                                    zipf ? kZipfDistinct : kUniformDistinct,
                                    zipf, SubSeed(seed, m)));
  }
  return traffic;
}

// ---------------------------------------------------------------------------
// Run-wide accounting.
// ---------------------------------------------------------------------------

struct Run {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_file;

  OpCounts ops;
  std::vector<std::string> failures;  // Output-check mismatches.

  void Fail(const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures.push_back(what);
  }
  void Count(bool ok) {
    ++ops.attempted;
    if (ok) {
      ++ops.succeeded;
    } else {
      ++ops.errors;
    }
  }
};

// ---------------------------------------------------------------------------
// Serving stack: version log + tree store (+ delta maintainer) + router +
// HTTP exposition. Members are destroyed in reverse order, so the
// exposition and router stop before the store and log they read.
// ---------------------------------------------------------------------------

struct Stack {
  std::string dir;
  std::unique_ptr<oct::store::VersionLog> log;
  std::unique_ptr<oct::serve::TreeStore> store;
  std::unique_ptr<oct::delta::DeltaMaintainer> maintainer;
  std::unique_ptr<oct::router::Router> router;
  std::unique_ptr<oct::serve::ServingExposition> exposition;
  double open_ms = 0.0;
  double warm_start_ms = 0.0;

  int port() const { return exposition->port(); }

  void Close() {
    exposition.reset();
    router.reset();
    maintainer.reset();
    store.reset();
    log.reset();
  }
};

/// Opens (or reopens) the log in `dir`, warm-starts a fresh store from it,
/// and starts the router and the HTTP exposition. `universe` > 0 attaches
/// a DeltaMaintainer over the store.
oct::Status OpenStack(const std::string& dir,
                      const oct::data::SearchEngine* engine, size_t universe,
                      Stack* stack) {
  stack->dir = dir;
  Timer timer;
  {
    OCT_SPAN("bench/store_open");
    OCT_ASSIGN_OR_RETURN(stack->log, oct::store::VersionLog::Open(dir));
  }
  stack->open_ms = timer.ElapsedMillis();
  stack->store = std::make_unique<oct::serve::TreeStore>(4);
  timer.Reset();
  {
    OCT_SPAN("bench/warm_start");
    OCT_ASSIGN_OR_RETURN(const oct::store::WarmStartReport report,
                         oct::store::WarmStart(stack->log.get(),
                                               stack->store.get()));
    (void)report;
  }
  stack->warm_start_ms = timer.ElapsedMillis();
  if (universe > 0) {
    oct::delta::DeltaMaintainerOptions options;
    options.builder.universe_floor = universe;
    stack->maintainer = std::make_unique<oct::delta::DeltaMaintainer>(
        stack->store.get(), nullptr, Sim(), options);
  }
  stack->router = std::make_unique<oct::router::Router>(stack->store.get(),
                                                        engine);
  stack->router->Start();
  oct::serve::ExpositionOptions options;
  options.enabled = true;
  options.port = 0;
  stack->exposition = std::make_unique<oct::serve::ServingExposition>(
      stack->store.get(), nullptr, nullptr, options, stack->router.get(),
      stack->maintainer.get());
  return stack->exposition->Start();
}

/// A serving stack that cannot open leaves nothing to measure: the run
/// stops with a failure instead of reporting.
void OpenStackOrExit(const std::string& dir,
                     const oct::data::SearchEngine* engine, size_t universe,
                     Stack* stack, Run* run) {
  const oct::Status opened = OpenStack(dir, engine, universe, stack);
  run->Count(opened.ok());
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: cannot open the serving stack in %s: %s\n",
                 dir.c_str(), opened.ToString().c_str());
    std::fflush(nullptr);
    std::_Exit(1);
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// The build path: raw log -> committed published tree.
// ---------------------------------------------------------------------------

struct BuildSample {
  double preprocess_s = 0.0;
  double index_s = 0.0;
  double conflicts_s = 0.0;
  double mis_s = 0.0;
  double construct_s = 0.0;
  double score_s = 0.0;
  double publish_ms = 0.0;
  double total_s = 0.0;
  size_t sets_kept = 0;
  size_t conflict_pairs = 0;
  size_t categories = 0;
  double tree_score = 0.0;
  oct::OctInput input;
  std::shared_ptr<const oct::serve::TreeSnapshot> snapshot;

  /// Frees the input and tree once the checks have used them, so the run
  /// holds no more than the program itself would.
  void Release() {
    input = oct::OctInput();
    snapshot.reset();
  }
};

oct::OctInput Preprocess(const Inputs& in, size_t* sets_kept) {
  OCT_SPAN("bench/build_oct_input");
  oct::data::PreprocessOptions options;
  options.relevance_threshold = kRelevance;
  oct::data::PreprocessStats stats;
  oct::OctInput input = oct::data::BuildOctInput(
      *in.engine, in.log, in.existing_tree, Sim(), options, &stats);
  *sets_kept = stats.after_merge;
  return input;
}

/// Index -> CTCR -> score on an already preprocessed input (fills the
/// ctcr/kernel/core fields of `s`); returns the tree.
oct::CategoryTree BuildTree(const oct::OctInput& input, Run* run,
                            BuildSample* s) {
  Timer timer;
  oct::kernel::ItemSetIndex index;
  {
    OCT_SPAN("bench/item_set_index");
    index = oct::kernel::ItemSetIndex::Build(input);
  }
  s->index_s = timer.ElapsedSeconds();
  oct::ctcr::CtcrOptions options;
  options.index = &index;
  oct::ctcr::CtcrResult result;
  {
    OCT_SPAN("bench/ctcr_build");
    result = oct::ctcr::BuildCategoryTree(input, Sim(), options);
  }
  run->Count(result.status.ok());
  if (!result.status.ok()) {
    run->Fail("CTCR build: " + result.status.ToString());
  }
  s->conflicts_s = result.seconds_conflicts;
  s->mis_s = result.seconds_mis;
  s->construct_s = result.seconds_build;
  s->conflict_pairs =
      result.analysis.conflicts2.size() + result.analysis.conflicts3.size();
  timer.Reset();
  {
    OCT_SPAN("bench/score_tree");
    s->tree_score = oct::ScoreTree(input, result.tree, Sim()).normalized;
  }
  s->score_s = timer.ElapsedSeconds();
  s->categories = result.tree.NumCategories();
  return std::move(result.tree);
}

/// True when the log committed exactly one more record since `before`.
bool CommittedOne(const Stack& stack, oct::store::TreeVersion before) {
  return stack.log->LatestVersion() == before + 1;
}

BuildSample BuildAndPublish(const Inputs& in, Stack* stack, Run* run) {
  OCT_SPAN("bench/build");
  BuildSample s;
  Timer total;
  Timer timer;
  s.input = Preprocess(in, &s.sets_kept);
  s.preprocess_s = timer.ElapsedSeconds();
  oct::CategoryTree tree = BuildTree(s.input, run, &s);
  const oct::store::TreeVersion before = stack->log->LatestVersion();
  timer.Reset();
  {
    OCT_SPAN("bench/publish");
    s.snapshot = stack->store->Publish(std::move(tree), "rebuild:CTCR");
  }
  s.publish_ms = timer.ElapsedMillis();
  s.total_s = total.ElapsedSeconds();
  const bool committed = CommittedOne(*stack, before);
  run->Count(committed);
  if (!committed) run->Fail("publish did not commit one log record");
  return s;
}

/// Publishes the served tree kRepublishes more times, each committed to the
/// log, and returns the time of each: with one publish per build, fsync
/// noise on a handful of samples decided publish_p50_ms.
std::vector<double> Republish(Stack* stack, Run* run) {
  std::vector<double> ms;
  for (int i = 0; i < kRepublishes; ++i) {
    oct::CategoryTree tree = stack->store->Current()->tree();
    const oct::store::TreeVersion before = stack->log->LatestVersion();
    Timer timer;
    {
      OCT_SPAN("bench/publish");
      stack->store->Publish(std::move(tree), "republish");
    }
    ms.push_back(timer.ElapsedMillis());
    const bool committed = CommittedOne(*stack, before);
    run->Count(committed);
    if (!committed) run->Fail("republish did not commit one log record");
  }
  return ms;
}

/// Output checks of a published build: the model invariants on its input.
void CheckBuild(const BuildSample& s, Run* run) {
  const oct::Status valid = s.snapshot->tree().ValidateModel(s.input);
  if (!valid.ok()) run->Fail("ValidateModel: " + valid.ToString());
}

/// The log's latest record decodes to the served tree.
void CheckLogMatchesServed(const Stack& stack, Run* run) {
  auto latest = stack.log->OpenLatest();
  if (!latest.ok()) {
    run->Fail("OpenLatest: " + latest.status().ToString());
    return;
  }
  if (oct::SerializeTree(*latest) !=
      oct::SerializeTree(stack.store->Current()->tree())) {
    run->Fail("OpenLatest decodes to a different tree than the served one");
  }
}

// ---------------------------------------------------------------------------
// HTTP client side.
// ---------------------------------------------------------------------------

struct RouteReply {
  int status = 0;
  std::vector<std::pair<uint64_t, std::string>> ranked;  // node, jaccard
  uint64_t trace_id = 0;
  size_t nodes_visited = 0;
};

uint64_t NumberAfter(const std::string& body, const std::string& key,
                     size_t from = 0) {
  const size_t at = body.find(key, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + key.size(), nullptr, 10);
}

/// Parses the fields of a /route response the checks compare. The body is
/// the program's own JSON; a key pattern like "node": cannot occur inside
/// a string value, whose quotes are escaped.
RouteReply ParseRouteReply(const std::string& raw) {
  RouteReply reply;
  if (raw.rfind("HTTP/1.1 ", 0) == 0) reply.status = std::atoi(raw.c_str() + 9);
  const size_t body_at = raw.find("\r\n\r\n");
  if (body_at == std::string::npos) return reply;
  const std::string body = raw.substr(body_at + 4);
  const std::string trace_key = "\"trace_id\":\"";
  const size_t trace_at = body.find(trace_key);
  if (trace_at != std::string::npos) {
    const size_t start = trace_at + trace_key.size();
    reply.trace_id = oct::obs::TraceIdFromHex(
        body.substr(start, body.find('"', start) - start));
  }
  const size_t ranked_at = body.find("\"ranked\":[");
  const size_t ranked_end = body.find("\"nodes_visited\":");
  for (size_t at = body.find("{\"node\":", ranked_at);
       ranked_at != std::string::npos && at != std::string::npos &&
       at < ranked_end;
       at = body.find("{\"node\":", at + 1)) {
    const uint64_t node = NumberAfter(body, "{\"node\":", at);
    const std::string key = "\"jaccard\":";
    const size_t j = body.find(key, at);
    if (j == std::string::npos) break;
    const size_t start = j + key.size();
    reply.ranked.push_back(
        {node, body.substr(start, body.find_first_of(",}", start) - start)});
  }
  reply.nodes_visited = NumberAfter(body, "\"nodes_visited\":");
  return reply;
}

/// One /route round trip. Counts the request and records its client span
/// under the trace id the server returned, so it joins the server's spans.
std::optional<RouteReply> GetRoute(int port, const std::string& text,
                                   OpCounts* ops, double* latency_us) {
  const uint64_t start_ns = oct::obs::TraceNowNanos();
  Timer timer;
  auto raw = oct::obs::HttpGetLocal(port, "/route?q=" + text);
  const double us = timer.ElapsedSeconds() * 1e6;
  const uint64_t end_ns = oct::obs::TraceNowNanos();
  ++ops->attempted;
  if (!raw.ok()) {
    ++ops->errors;
    return std::nullopt;
  }
  RouteReply reply = ParseRouteReply(*raw);
  if (oct::obs::TracingEnabled()) {
    oct::obs::TraceContext ctx;
    ctx.trace_id = reply.trace_id;
    oct::obs::TraceContextScope scope(ctx);
    oct::obs::RecordLinkedSpan("bench/http_get", start_ns, end_ns, 0);
  }
  if (reply.status == 200) {
    ++ops->succeeded;
    if (latency_us != nullptr) *latency_us = us;
  } else if (reply.status == 503) {
    ++ops->refused;
  } else {
    ++ops->errors;
  }
  return reply;
}

struct LoadResult {
  /// Every 200 round trip, and the host steal of the time it ran in.
  std::vector<double> round_trip_us;
  std::vector<double> round_trip_steal;
  /// The window cut into steal slices, with the 200s completed in each.
  std::vector<Slice> slices;
  OpCounts ops;
  double seconds = 0.0;
  /// Share of requests on the kHeadQueries most frequent queries of the
  /// mix, request-weighted across mixes.
  double repetition = 0.0;

  void Add(const LoadResult& other) {
    const double n = static_cast<double>(ops.attempted);
    const double m = static_cast<double>(other.ops.attempted);
    repetition = n + m > 0 ? (repetition * n + other.repetition * m) / (n + m)
                           : 0.0;
    ops.Add(other.ops);
    seconds += other.seconds;
    round_trip_us.insert(round_trip_us.end(), other.round_trip_us.begin(),
                         other.round_trip_us.end());
    round_trip_steal.insert(round_trip_steal.end(),
                            other.round_trip_steal.begin(),
                            other.round_trip_steal.end());
    slices.insert(slices.end(), other.slices.begin(), other.slices.end());
  }
  size_t Samples() const { return round_trip_us.size(); }
  /// The round trips the latency figures count, and the slices throughput
  /// counts: those that ran while the host stole least. Bursts of hypervisor
  /// steal raised a window's p99 up to threefold and cut its throughput by
  /// up to 30% on shared hosts; that measures the host, not the program.
  std::vector<double> Quiet() const {
    return Pick(round_trip_us,
                QuietestIndices(round_trip_steal, kQuietShare, kQuietMin));
  }
  double P50() const { return Percentile(Quiet(), 0.5); }
  double P99() const { return Percentile(Quiet(), 0.99); }
  double Qps() const { return QuietestRate(slices, kQuietShare); }
  /// Host CPU steal share over the whole window.
  double Steal() const {
    double seconds = 0.0;
    double stolen = 0.0;
    for (const Slice& slice : slices) {
      seconds += slice.seconds;
      stolen += slice.steal * slice.seconds;
    }
    return seconds > 0.0 ? stolen / seconds : 0.0;
  }
};

/// Closed loop: kConnections clients, each sending its next /route request
/// only after the previous reply. Each client stops after
/// `per_connection` requests (when > 0), or when `stop` is set. Host CPU
/// steal is read every kStealSlice meanwhile.
LoadResult ClosedLoop(int port, const TrafficMix& mix, uint64_t seed,
                      int per_connection, std::atomic<bool>* stop,
                      const std::function<void()>& while_running = {}) {
  // Per connection: (completion since loop start, round trip) of each 200.
  std::vector<std::vector<std::pair<double, double>>> samples(kConnections);
  std::vector<OpCounts> ops(kConnections);
  std::vector<std::vector<uint64_t>> per_query(
      kConnections, std::vector<uint64_t>(mix.texts.size(), 0));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::chrono::steady_clock::time_point start;  // Written before `go`.
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      oct::Rng rng(SubSeed(seed, 100 + c));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; per_connection <= 0 || i < per_connection; ++i) {
        if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
        const size_t q = mix.Draw(&rng);
        ++per_query[c][q];
        double us = -1.0;
        GetRoute(port, mix.texts[q], &ops[c], &us);
        if (us >= 0.0) {
          samples[c].push_back(
              {std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count(),
               us});
        }
      }
    });
  }
  while (ready.load() < kConnections) std::this_thread::yield();
  Timer timer;
  start = std::chrono::steady_clock::now();
  StealTimeline steal;
  auto read_steal = [&] {
    if (const auto ticks = ParseProcStat(ReadFileText("/proc/stat"))) {
      steal.Add(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count(),
                *ticks);
    }
  };
  read_steal();
  std::mutex steal_mu;
  std::condition_variable steal_cv;
  bool clients_done = false;
  std::thread steal_reader([&] {
    std::unique_lock<std::mutex> lock(steal_mu);
    while (!steal_cv.wait_for(lock, kStealSlice,
                              [&] { return clients_done; })) {
      read_steal();
    }
  });
  go.store(true, std::memory_order_release);
  if (while_running) while_running();
  for (auto& client : clients) client.join();
  const double seconds = timer.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(steal_mu);
    clients_done = true;
  }
  steal_cv.notify_one();
  steal_reader.join();
  read_steal();

  LoadResult total;
  total.seconds = seconds;
  std::vector<double> done_times;
  std::vector<uint64_t> counts(mix.texts.size(), 0);
  for (int c = 0; c < kConnections; ++c) {
    total.ops.Add(ops[c]);
    for (const auto& [done, us] : samples[c]) {
      total.round_trip_us.push_back(us);
      total.round_trip_steal.push_back(steal.Over(done - us * 1e-6, done));
      done_times.push_back(done);
    }
    for (size_t q = 0; q < counts.size(); ++q) counts[q] += per_query[c][q];
  }
  total.slices = steal.Slices(done_times);
  total.repetition = TopShare(counts, kHeadQueries);
  return total;
}

/// Walks the traffic's mixes in equal sub-windows: `seconds` of wall time
/// in all when > 0, otherwise `per_connection` requests per connection in
/// all.
LoadResult RunTraffic(int port, const Traffic& traffic, uint64_t seed,
                      int per_connection, double seconds) {
  const size_t m = traffic.mixes.size();
  LoadResult total;
  for (size_t i = 0; i < m; ++i) {
    const uint64_t sub_seed = SubSeed(seed, i);
    if (seconds > 0.0) {
      std::atomic<bool> stop{false};
      total.Add(ClosedLoop(port, traffic.mixes[i], sub_seed, 0, &stop, [&] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds / static_cast<double>(m)));
        stop.store(true, std::memory_order_release);
      }));
    } else {
      total.Add(ClosedLoop(
          port, traffic.mixes[i], sub_seed,
          std::max(1, per_connection / static_cast<int>(m)), nullptr));
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Output check: a fixed seeded sample answered over HTTP must match the
// serial oracle node by node with the same Jaccard values.
// ---------------------------------------------------------------------------

struct OracleResult {
  double routed_frac = 0.0;
  double nodes_visited = 0.0;
};

std::vector<std::string> SampleOf(const Traffic& traffic, uint64_t seed,
                                  size_t n) {
  oct::Rng rng(seed);
  std::vector<std::string> sample;
  for (size_t i = 0; i < n; ++i) sample.push_back(traffic.Draw(&rng));
  return sample;
}

std::string JaccardText(double jaccard) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", jaccard);  // As the JSON writer.
  return buf;
}

OracleResult CheckAgainstOracle(const Stack& stack,
                                const oct::data::Catalog& catalog,
                                const Traffic& traffic, uint64_t seed,
                                Run* run) {
  OracleResult out;
  size_t routed = 0;
  size_t visited = 0;
  const std::vector<std::string> sample =
      SampleOf(traffic, seed, kOracleSample);
  for (const std::string& text : sample) {
    const auto reply = GetRoute(stack.port(), text, &run->ops, nullptr);
    auto parsed = oct::router::ParseQuery(text, catalog);
    if (!reply || reply->status != 200 || !parsed.ok()) {
      run->Fail("oracle sample: /route?q=" + text + " failed");
      continue;
    }
    oct::router::RouteRequest request;
    request.query = std::move(parsed).value();
    const oct::router::RouteResult serial = stack.router->RouteSerial(request);
    bool same = serial.status.ok() &&
                serial.ranked.size() == reply->ranked.size();
    for (size_t i = 0; same && i < serial.ranked.size(); ++i) {
      same = serial.ranked[i].node == reply->ranked[i].first &&
             JaccardText(serial.ranked[i].jaccard) == reply->ranked[i].second;
    }
    if (!same) {
      run->Fail("/route?q=" + text + " differs from RouteSerial");
    }
    if (!reply->ranked.empty()) ++routed;
    visited += reply->nodes_visited;
  }
  out.routed_frac = static_cast<double>(routed) / sample.size();
  out.nodes_visited = static_cast<double>(visited) / sample.size();
  return out;
}

/// routed_frac of one tree: the share of a fixed seeded sample of the
/// traffic that RouteSerial answers with a non-empty ranking.
double RoutedFraction(const oct::router::Router& router,
                      const oct::data::Catalog& catalog,
                      const Traffic& traffic, uint64_t seed) {
  size_t routed = 0;
  const std::vector<std::string> sample =
      SampleOf(traffic, seed, kRoutedSample);
  for (const std::string& text : sample) {
    auto parsed = oct::router::ParseQuery(text, catalog);
    if (!parsed.ok()) continue;
    oct::router::RouteRequest request;
    request.query = std::move(parsed).value();
    if (!router.RouteSerial(request).ranked.empty()) ++routed;
  }
  return static_cast<double>(routed) / static_cast<double>(sample.size());
}

// ---------------------------------------------------------------------------
// Restart: tear the live stack down, reopen its log, warm-start a fresh
// store and serve the first /route from the recovered tree.
// ---------------------------------------------------------------------------

struct RestartResult {
  double restart_ms = 0.0;
  double open_ms = 0.0;
  double warm_start_ms = 0.0;
  uint64_t log_bytes = 0;
  double steal = 0.0;  // Host steal share during the restart.
};

RestartResult Restart(Stack* stack, const oct::data::SearchEngine* engine,
                      const std::string& probe_text, Run* run) {
  const std::string dir = stack->dir;
  const std::string served =
      oct::SerializeTree(stack->store->Current()->tree());
  stack->Close();
  RestartResult out;
  out.log_bytes = DirBytes(dir);
  const StealMeter steal;
  Timer timer;
  {
    OCT_SPAN("bench/restart");
    OpenStackOrExit(dir, engine, 0, stack, run);
    OpCounts ops;
    GetRoute(stack->port(), probe_text, &ops, nullptr);
    run->ops.Add(ops);
    if (ops.succeeded != 1) run->Fail("restart: first /route was not 200");
  }
  out.restart_ms = timer.ElapsedMillis();
  out.steal = steal.Share();
  out.open_ms = stack->open_ms;
  out.warm_start_ms = stack->warm_start_ms;
  if (stack->store->Current() == nullptr ||
      oct::SerializeTree(stack->store->Current()->tree()) != served) {
    run->Fail("warm-started tree differs from the last published tree");
  }
  return out;
}

/// kRestarts restarts (each one reopens the log the previous one left, after
/// a little traffic), medians of each field over the restarts that ran while
/// the host stole least (see kQuietEvents). Each restart's first /route is a
/// different query drawn uniformly from the first mix, so the median does
/// not hang on the resolve cost of one query.
RestartResult Restarts(Stack* stack, const oct::data::SearchEngine* engine,
                       const Traffic& traffic, uint64_t seed, Run* run) {
  std::vector<double> total, open, warm, steal;
  RestartResult out;
  oct::Rng rng(seed);
  const std::vector<std::string>& texts = traffic.mixes[0].texts;
  for (int i = 0; i < kRestarts; ++i) {
    if (i > 0) {
      run->ops.Add(ClosedLoop(stack->port(), traffic.mixes[0],
                              SubSeed(seed, i), kRestartGapPerConnection,
                              nullptr)
                       .ops);
    }
    const RestartResult rs =
        Restart(stack, engine, texts[rng.NextBelow(texts.size())], run);
    total.push_back(rs.restart_ms);
    open.push_back(rs.open_ms);
    warm.push_back(rs.warm_start_ms);
    steal.push_back(rs.steal);
    out.log_bytes = rs.log_bytes;
  }
  const std::vector<size_t> quiet =
      QuietestIndices(steal, kQuietShare, kQuietEvents);
  out.restart_ms = Median(Pick(total, quiet));
  out.open_ms = Median(Pick(open, quiet));
  out.warm_start_ms = Median(Pick(warm, quiet));
  return out;
}

// ---------------------------------------------------------------------------
// Route layer ladder (traced runs): serial timings of each public call on
// a fixed seeded sample, medians over the sample.
// ---------------------------------------------------------------------------

struct Ladder {
  double parse_us = 0.0;
  double resolve_us = 0.0;
  double result_set_items = 0.0;
  double descent_us = 0.0;
  double serial_us = 0.0;
  double route_us = 0.0;
  double handle_us = 0.0;
  double http_us = 0.0;
  // Medians of the per-query differences between adjacent rungs.
  double assemble_us = 0.0;  // RouteSerial - ResultSet - ScoreTopK
  double handoff_us = 0.0;   // Route - RouteSerial
  double handler_us = 0.0;   // HandleRoute - Route
  double socket_us = 0.0;    // HTTP round trip - HandleRoute
};

/// Fastest of kLadderReps timings of `step`, in microseconds.
template <typename Step>
double FastestUs(const Step& step) {
  double best = 1e300;
  for (int rep = 0; rep < kLadderReps; ++rep) {
    Timer t;
    step();
    best = std::min(best, t.ElapsedSeconds() * 1e6);
  }
  return best;
}

Ladder RunLadder(const Stack& stack, const oct::data::Catalog& catalog,
                 const Traffic& traffic, uint64_t seed, Run* run) {
  std::vector<double> parse, resolve, descent, serial, route, handle, http;
  std::vector<double> assemble, handoff, handler, socket;
  double items = 0.0;
  const auto index = stack.router->CurrentIndex();
  const oct::router::RouterOptions& options = stack.router->options();
  const std::vector<std::string> sample =
      SampleOf(traffic, seed, kLadderSample);
  for (const std::string& text : sample) {
    auto parsed = oct::router::ParseQuery(text, catalog);
    if (!parsed.ok()) {
      run->Fail("ladder: ParseQuery(" + text + ")");
      continue;
    }
    const double parse_us = FastestUs([&] {
      OCT_SPAN("bench/parse_query");
      (void)oct::router::ParseQuery(text, catalog);
    });
    oct::ItemSet result_set;
    const double resolve_us = FastestUs([&] {
      OCT_SPAN("bench/result_set");
      result_set = stack.router->engine().ResultSet(*parsed, kRelevance);
    });
    items += static_cast<double>(result_set.size());
    std::vector<oct::router::NodeScore> scored;
    const double descent_us = FastestUs([&] {
      OCT_SPAN("bench/score_top_k");
      index->ScoreTopK(result_set, options.top_k, options.min_jaccard,
                       nullptr, &scored);
    });
    oct::router::RouteRequest request;
    request.query = *parsed;
    const double serial_us = FastestUs([&] {
      OCT_SPAN("bench/route_serial");
      (void)stack.router->RouteSerial(request);
    });
    const double route_us = FastestUs([&] {
      OCT_SPAN("bench/route");
      run->Count(stack.router->Route(request).status.ok());
    });
    oct::obs::HttpRequest http_request;
    http_request.method = "GET";
    http_request.path = "/route";
    http_request.query = "q=" + text;
    const double handle_us = FastestUs([&] {
      OCT_SPAN("bench/handle_route");
      const std::string response = stack.exposition->HandleRoute(http_request);
      run->Count(response.rfind("HTTP/1.1 200", 0) == 0);
    });
    const double http_us = FastestUs([&] {
      GetRoute(stack.port(), text, &run->ops, nullptr);
    });
    parse.push_back(parse_us);
    resolve.push_back(resolve_us);
    descent.push_back(descent_us);
    serial.push_back(serial_us);
    route.push_back(route_us);
    handle.push_back(handle_us);
    http.push_back(http_us);
    assemble.push_back(serial_us - resolve_us - descent_us);
    handoff.push_back(route_us - serial_us);
    handler.push_back(handle_us - route_us);
    socket.push_back(http_us - handle_us);
  }
  Ladder out;
  out.parse_us = Median(parse);
  out.resolve_us = Median(resolve);
  out.result_set_items = items / static_cast<double>(sample.size());
  out.descent_us = Median(descent);
  out.serial_us = Median(serial);
  out.route_us = Median(route);
  out.handle_us = Median(handle);
  out.http_us = Median(http);
  out.assemble_us = Median(assemble);
  out.handoff_us = Median(handoff);
  out.handler_us = Median(handler);
  out.socket_us = Median(socket);
  return out;
}

// ---------------------------------------------------------------------------
// Tail churn: new long-tail queries over fresh items (items beyond the
// catalog), every third sharing items with the previous one so small
// multi-set components form, as in bench/delta_rebuild.
// ---------------------------------------------------------------------------

class TailChurn {
 public:
  TailChurn(size_t universe, uint64_t seed)
      : next_item_(static_cast<oct::ItemId>(universe)), rng_(seed) {}

  void Next(oct::delta::DeltaMaintainer* maintainer) {
    const std::string label = "tail#" + std::to_string(next_label_++);
    std::vector<oct::ItemId> items;
    const size_t size = 6 + rng_.NextBelow(8);
    if (next_label_ % 3 == 0 && !last_.empty()) {
      items.assign(last_.begin(),
                   last_.begin() + std::min<size_t>(3, last_.size()));
    }
    while (items.size() < size) items.push_back(next_item_++);
    last_ = items;
    oct::CandidateSet set;
    set.items = oct::ItemSet(std::move(items));
    set.weight = 1.0 + 0.01 * static_cast<double>(rng_.NextBelow(50));
    set.label = label;
    maintainer->UpsertQuery(label, std::move(set));
  }

 private:
  oct::ItemId next_item_;
  oct::Rng rng_;
  size_t next_label_ = 0;
  std::vector<oct::ItemId> last_;
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

size_t TimeWaitSockets() {
  return CountTimeWait(ReadFileText("/proc/net/tcp")) +
         CountTimeWait(ReadFileText("/proc/net/tcp6"));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double OwnCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The spans as self-time input, with each /route request joined into one
/// tree under the benchmark's client span. The client span carries the
/// trace id the server returned; the server's spans of that trace hang
/// under the handler span ("obs/expose_request", opened before the trace
/// starts, so matched by thread and time), and the handler under the
/// client span.
std::vector<SpanTimes> JoinRequestTraces(
    const std::vector<oct::obs::SpanEvent>& events) {
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_map<uint64_t, size_t> client_of;  // trace -> client span
  std::map<uint32_t, std::vector<size_t>> handlers;  // thread -> spans
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    by_id[e.span_id] = i;
    if (std::strcmp(e.name, "bench/http_get") == 0 && e.trace_id != 0) {
      client_of[e.trace_id] = i;
    } else if (std::strcmp(e.name, "obs/expose_request") == 0) {
      handlers[e.thread_id].push_back(i);  // Events are start-ordered.
    }
  }
  std::unordered_map<uint64_t, size_t> handler_of;  // trace -> handler
  for (const auto& e : events) {
    if (e.trace_id == 0 || !client_of.count(e.trace_id) ||
        handler_of.count(e.trace_id)) {
      continue;
    }
    const auto on_thread = handlers.find(e.thread_id);
    if (on_thread == handlers.end()) continue;
    for (size_t h : on_thread->second) {
      if (events[h].start_ns <= e.start_ns && e.end_ns <= events[h].end_ns) {
        handler_of[e.trace_id] = h;
        break;
      }
    }
  }
  std::vector<SpanTimes> spans;
  spans.reserve(events.size());
  for (const auto& e : events) {
    spans.push_back({e.span_id, e.parent_id, e.start_ns, e.end_ns});
  }
  for (const auto& [trace, h] : handler_of) {
    spans[h].parent = events[client_of[trace]].span_id;
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const auto client = client_of.find(e.trace_id);
    if (e.trace_id == 0 || client == client_of.end() || client->second == i ||
        (e.parent_id != 0 && by_id.count(e.parent_id))) {
      continue;
    }
    const auto handler = handler_of.find(e.trace_id);
    spans[i].parent = handler != handler_of.end()
                          ? events[handler->second].span_id
                          : events[client->second].span_id;
  }
  return spans;
}

/// Layer self times from the recorded spans, one row per span name.
void PrintSpanTable(const std::vector<oct::obs::SpanEvent>& events) {
  const std::vector<SpanTimes> spans = JoinRequestTraces(events);
  const std::vector<uint64_t> self = SelfTimes(spans);
  struct Row {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  std::map<uint64_t, size_t> traces;
  for (size_t i = 0; i < events.size(); ++i) {
    Row& row = rows[events[i].name];
    ++row.count;
    row.total_ms += events[i].DurationMicros() / 1e3;
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    if (events[i].trace_id != 0) ++traces[events[i].trace_id];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::printf("\nspan self times (%zu spans, %zu request traces)\n",
              events.size(), traces.size());
  std::printf("  %-32s %10s %14s %14s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : sorted) {
    std::printf("  %-32s %10zu %14.3f %14.3f\n", name.c_str(), row.count,
                row.total_ms, row.self_ms);
  }
}

struct LayerRow {
  std::string name;
  double value;
  const char* unit;
  bool in_residual;  // Part of the end-to-end number's layer sum.
};

/// Prints a workload's layer table, ending with the residual and the
/// tracing overhead.
void PrintLayerTable(const std::string& e2e_name, double e2e_traced,
                     double e2e_untraced, const char* unit,
                     const std::vector<LayerRow>& rows) {
  std::printf("\nlayers of %s (traced %.6g %s)\n", e2e_name.c_str(),
              e2e_traced, unit);
  std::vector<double> parts;
  for (const LayerRow& row : rows) {
    std::printf("  %-28s %14.6g %-6s %s\n", row.name.c_str(), row.value,
                row.unit, row.in_residual ? "" : "(not summed)");
    if (row.in_residual) parts.push_back(row.value);
  }
  std::printf("  %-28s %14.6g %s\n", "residual", Residual(e2e_traced, parts),
              unit);
  std::printf("  %-28s %14.6g %s (traced %.6g - untraced %.6g)\n",
              "tracing overhead", e2e_traced - e2e_untraced, unit, e2e_traced,
              e2e_untraced);
}

// ---------------------------------------------------------------------------
// Workloads. Each fills `e2e` (untraced numbers) and, in a traced run,
// `layers` (per-layer numbers) plus the printed layer tables.
// ---------------------------------------------------------------------------

struct Results {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;

  void E2e(const std::string& name, double value, const char* unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    layers.push_back({name, value, unit});
  }
};

std::string SetupDir(const Run& run, int i) {
  return run.workdir + "/stack-" + std::to_string(i);
}

template <typename T>
double MedianOf(const std::vector<BuildSample>& builds, T BuildSample::*field) {
  std::vector<double> v;
  for (const BuildSample& b : builds) {
    v.push_back(static_cast<double>(b.*field));
  }
  return Median(v);
}

/// The build-stage per-layer metrics of a set of build samples (medians).
void BuildLayers(const std::vector<BuildSample>& builds, const Stack& stack,
                 Results* r) {
  r->Layer("data.preprocess_s", MedianOf(builds, &BuildSample::preprocess_s),
           "s");
  r->Layer("data.sets_kept", MedianOf(builds, &BuildSample::sets_kept),
           "count");
  r->Layer("kernel.index_s", MedianOf(builds, &BuildSample::index_s), "s");
  r->Layer("ctcr.conflicts_s", MedianOf(builds, &BuildSample::conflicts_s),
           "s");
  r->Layer("ctcr.conflict_pairs",
           MedianOf(builds, &BuildSample::conflict_pairs), "count");
  r->Layer("mis.solve_s", MedianOf(builds, &BuildSample::mis_s), "s");
  r->Layer("ctcr.construct_s", MedianOf(builds, &BuildSample::construct_s),
           "s");
  r->Layer("core.score_s", MedianOf(builds, &BuildSample::score_s), "s");
  r->Layer("core.categories", MedianOf(builds, &BuildSample::categories),
           "count");
  r->Layer("serve.publish_ms", MedianOf(builds, &BuildSample::publish_ms),
           "ms");
  auto record = stack.log->RecordBytes(stack.log->LatestVersion());
  r->Layer("store.record_bytes",
           record.ok() ? static_cast<double>(record->size()) : 0.0, "bytes");
}

/// Router counters that the load tables read, as running totals.
struct RouterTotals {
  double queue_us_sum = 0.0;
  double queue_count = 0.0;
  double batch_sum = 0.0;
  double batches = 0.0;
  uint64_t deduped = 0;
};

RouterTotals RouterTotalsOf(const oct::router::Router& router) {
  RouterTotals t;
  for (const auto& [name, h] : router.stats().registry().HistogramValues()) {
    if (name == "router.queue_us") {
      t.queue_us_sum = h.sum;
      t.queue_count = static_cast<double>(h.count);
    } else if (name == "router.batch_size") {
      t.batch_sum = h.sum;
      t.batches = static_cast<double>(h.count);
    }
  }
  t.deduped = router.stats().Snapshot().deduped;
  return t;
}

/// Mean queue wait and batch size, and requests deduplicated, between two
/// RouterTotals taken around a load window.
struct LoadStats {
  double queue_us = 0.0;
  double batch_size = 0.0;
  uint64_t deduped = 0;

  static LoadStats Between(const RouterTotals& a, const RouterTotals& b) {
    LoadStats out;
    const double queued = b.queue_count - a.queue_count;
    const double batches = b.batches - a.batches;
    out.queue_us = queued > 0 ? (b.queue_us_sum - a.queue_us_sum) / queued : 0;
    out.batch_size = batches > 0 ? (b.batch_sum - a.batch_sum) / batches : 0;
    out.deduped = b.deduped - a.deduped;
    return out;
  }
};

double IndexBuildMs(const Stack& stack) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    Timer t;
    OCT_SPAN("bench/route_index_build");
    const auto index = oct::router::RouteIndex::Build(stack.store->Current());
    ms.push_back(t.ElapsedMillis());
  }
  return Median(ms);
}

/// The route-side per-layer metrics and the route layer table.
void RouteLayers(const Stack& stack, const oct::data::Catalog& catalog,
                 const Traffic& traffic, const OracleResult& oracle,
                 const LoadStats& load, double p50_traced,
                 double p50_untraced, Run* run, Results* r) {
  const Ladder l =
      RunLadder(stack, catalog, traffic, SubSeed(run->seed, 40), run);
  const double handoff = l.handoff_us;
  const double handler = l.handler_us;
  const double socket = l.socket_us;
  const double assemble = l.assemble_us;
  r->Layer("router.parse_us", l.parse_us, "us");
  r->Layer("data.resolve_us", l.resolve_us, "us");
  r->Layer("data.result_set_items", l.result_set_items, "count");
  r->Layer("router.descent_us", l.descent_us, "us");
  r->Layer("router.nodes_visited", oracle.nodes_visited, "count");
  r->Layer("router.handoff_us", handoff, "us");
  r->Layer("serve.http_handler_us", handler, "us");
  r->Layer("obs.socket_us", socket, "us");
  r->Layer("router.queue_us", load.queue_us, "us");
  r->Layer("router.batch_size", load.batch_size, "count");
  r->Layer("router.index_build_ms", IndexBuildMs(stack), "ms");
  std::printf(
      "\nroute ladder (serial, %zu queries, medians): parse %.1f us, "
      "ResultSet %.1f us, ScoreTopK %.1f us, RouteSerial %.1f us, "
      "Route %.1f us, HandleRoute %.1f us, HTTP %.1f us\n",
      kLadderSample, l.parse_us, l.resolve_us, l.descent_us, l.serial_us,
      l.route_us, l.handle_us, l.http_us);
  std::printf("router under load: deduped %" PRIu64 "\n", load.deduped);
  PrintLayerTable("route_p50_us", p50_traced, p50_untraced, "us",
                  {{"obs.socket_us", socket, "us", true},
                   {"serve.http_handler_us", handler, "us", true},
                   {"  router.parse_us", l.parse_us, "us", false},
                   {"router.handoff_us", handoff, "us", true},
                   {"data.resolve_us", l.resolve_us, "us", true},
                   {"router.descent_us", l.descent_us, "us", true},
                   {"router.assemble_us", assemble, "us", true},
                   {"router.queue_us", load.queue_us, "us", false}});
}

/// restart_ms from kRestarts untraced restarts; in a traced run the same
/// restarts run once more with spans on, for the per-layer metrics and the
/// restart table. peak_rss_mb is read before the restarts: each one rebuilds
/// the serving stack inside this process, standing in for a fresh process,
/// and on build_full the rebuilt stacks raised the peak by 10 to 55 MB, a
/// different amount in each run, which measures the stand-in, not the
/// program.
void RestartPhase(Stack* stack, const oct::data::SearchEngine* engine,
                  const Traffic& traffic, Run& run, Results* r) {
  r->E2e("peak_rss_mb", PeakRssMb(), "MB");
  oct::obs::SetTracingEnabled(false);
  const RestartResult untraced =
      Restarts(stack, engine, traffic, SubSeed(run.seed, 80), &run);
  oct::obs::SetTracingEnabled(run.trace);
  r->E2e("restart_ms", untraced.restart_ms, "ms");
  if (!run.trace) return;
  const RestartResult rs =
      Restarts(stack, engine, traffic, SubSeed(run.seed, 80), &run);
  r->Layer("store.open_ms", rs.open_ms, "ms");
  r->Layer("store.warm_start_ms", rs.warm_start_ms, "ms");
  r->Layer("store.log_bytes", static_cast<double>(rs.log_bytes), "bytes");
  PrintLayerTable("restart_ms", rs.restart_ms, untraced.restart_ms, "ms",
                  {{"store.open_ms", rs.open_ms, "ms", true},
                   {"store.warm_start_ms", rs.warm_start_ms, "ms", true}});
}

void PrintBuildTable(double traced_s, double untraced_s,
                     const std::vector<BuildSample>& builds) {
  auto row = [&](const char* name, auto field) {
    return LayerRow{name, MedianOf(builds, field), "s", true};
  };
  PrintLayerTable("build_s", traced_s, untraced_s, "s",
                  {row("data.preprocess_s", &BuildSample::preprocess_s),
                   row("kernel.index_s", &BuildSample::index_s),
                   row("ctcr.conflicts_s", &BuildSample::conflicts_s),
                   row("mis.solve_s", &BuildSample::mis_s),
                   row("ctcr.construct_s", &BuildSample::construct_s),
                   row("core.score_s", &BuildSample::score_s),
                   {"serve.publish_s",
                    MedianOf(builds, &BuildSample::publish_ms) / 1e3, "s",
                    true}});
}

void RouteE2e(const LoadResult& load, const OracleResult& oracle,
              Results* r) {
  const size_t n = load.Samples();
  const size_t quiet = load.Quiet().size();
  std::printf(
      "route load: closed loop, %d connections, %zu requests in %.3f s, host "
      "cpu steal %.4f (%zu samples; p50/p99 over the %zu that ran while the "
      "host stole least, %zu beyond p99), repetition %.3f of requests on the "
      "%zu most frequent queries\n",
      kConnections, static_cast<size_t>(load.ops.attempted), load.seconds,
      load.Steal(), n, quiet, SamplesBeyond(quiet, 0.99), load.repetition,
      kHeadQueries);
  r->E2e("route_p50_us", load.P50(), "us");
  r->E2e("route_p99_us", load.P99(), "us");
  r->E2e("route_qps", load.Qps(), "1/s");
  std::printf("oracle sample: %.4f of %zu /route answers ranked\n",
              oracle.routed_frac, kOracleSample);
}

void RequireP99(const LoadResult& load, Run* run) {
  const size_t quiet = load.Quiet().size();
  if (!SupportsPercentile(quiet, 0.99)) {
    run->Fail("p99 has fewer than 10 samples beyond it (" +
              std::to_string(quiet) + " samples)");
  }
}

// --- build_full ------------------------------------------------------------

void BuildFull(Run& run, Results* r) {
  // Each round times its set-ups, then its last set-up's raw log -> committed
  // published tree, in the stack that set-up opened, so the served tree comes
  // from the catalog the stack routes with, and routes over that tree. A
  // traced run routes each round once more with spans on, and builds the
  // last round's input once more with spans on (one traced build keeps the
  // run well inside its time limit). Only the current set-up's inputs are
  // held.
  std::vector<double> setups;
  std::vector<BuildSample> builds;
  std::vector<BuildSample> traced;
  std::vector<double> routed;
  std::vector<double> publishes;
  LoadResult load;
  LoadResult traced_load;
  LoadStats load_stats;  // Of the last round's traced pass.
  Stack stack;
  Inputs in;
  Traffic traffic;
  for (int round = 0; round < kBuilds; ++round) {
    for (int k = 0; k < kRoundSetups; ++k) {
      const int i = round * kRoundSetups + k;
      stack.Close();  // Before the engine it routes with is freed.
      in = Inputs();
      Timer t;
      in = MakeInputs(kShapeD, SubSeed(run.seed, 100 + i));
      OpenStackOrExit(SetupDir(run, i), in.engine.get(), 0, &stack, &run);
      setups.push_back(t.ElapsedSeconds());
    }
    const int i = (round + 1) * kRoundSetups - 1;
    oct::obs::SetTracingEnabled(false);
    BuildSample b = BuildAndPublish(in, &stack, &run);
    oct::obs::SetTracingEnabled(run.trace);
    CheckBuild(b, &run);
    b.Release();
    publishes.push_back(b.publish_ms);
    for (double ms : Republish(&stack, &run)) publishes.push_back(ms);
    builds.push_back(std::move(b));
    if (run.trace && round + 1 == kBuilds) {
      traced.push_back(BuildAndPublish(in, &stack, &run));
      traced.back().Release();
    }
    CheckLogMatchesServed(stack, &run);
    traffic = MakeTraffic(*in.catalog, true, SubSeed(run.seed, 200 + i));
    routed.push_back(RoutedFraction(*stack.router, *in.catalog, traffic,
                                    SubSeed(run.seed, 300 + i)));

    // Route over this round's tree, fixed counts after a warm-up: the route
    // cost of a D tree varies with its catalog, so every round's counts.
    run.ops.Add(RunTraffic(stack.port(), traffic, SubSeed(run.seed, 400 + i),
                           kWarmupPerConnection / 4, 0.0)
                    .ops);
    oct::obs::SetTracingEnabled(false);
    const LoadResult part = RunTraffic(stack.port(), traffic,
                                       SubSeed(run.seed, 500 + i),
                                       kBuildRoutePerConnection, 0.0);
    oct::obs::SetTracingEnabled(run.trace);
    run.ops.Add(part.ops);
    load.Add(part);
    if (run.trace) {
      const RouterTotals before = RouterTotalsOf(*stack.router);
      const LoadResult traced_part = RunTraffic(
          stack.port(), traffic, SubSeed(run.seed, 600 + i),
          kBuildRoutePerConnection, 0.0);
      load_stats = LoadStats::Between(before, RouterTotalsOf(*stack.router));
      run.ops.Add(traced_part.ops);
      traced_load.Add(traced_part);
    }
  }
  r->E2e("setup_s", Median(setups), "s");
  r->E2e("routed_frac", Mean(routed), "ratio");
  std::vector<double> scores;
  for (const BuildSample& b : builds) {
    scores.push_back(b.tree_score);
    std::printf("build: %zu sets, %zu categories, %.3f s, score %.6f\n",
                b.sets_kept, b.categories, b.total_s, b.tree_score);
  }
  const double build_s = MedianOf(builds, &BuildSample::total_s);
  r->E2e("build_s", build_s, "s");
  r->E2e("tree_score", Mean(scores), "ratio");
  r->E2e("publish_p50_ms", Median(publishes), "ms");
  if (run.trace) {
    // Overhead against the untraced build of the same input.
    PrintBuildTable(traced.back().total_s, builds.back().total_s, traced);
    BuildLayers(traced, stack, r);
  }

  RequireP99(load, &run);
  const OracleResult oracle = CheckAgainstOracle(
      stack, *in.catalog, traffic, SubSeed(run.seed, 23), &run);
  RouteE2e(load, oracle, r);
  if (run.trace) {
    RouteLayers(stack, *in.catalog, traffic, oracle, load_stats,
                traced_load.P50(), load.P50(), &run, r);
  }
  RestartPhase(&stack, in.engine.get(), traffic, run, r);
  stack.Close();
}

// --- route_zipf / churn_live shared set-up ---------------------------------

/// One set-up of a C-shaped serving workload: inputs, stack, bootstrap
/// (batch build + publish, or a DeltaMaintainer seed) and route warm-up.
struct CSetup {
  Inputs inputs;
  Traffic traffic;
  BuildSample build;   // Bootstrap build (route_zipf) or seed (churn_live).
  double seed_ms = 0.0;  // churn_live: the seed PumpOnce.
  std::vector<double> republish_ms;  // route_zipf: see Republish.
};

void SetUpC(Run& run, int i, bool churn, const std::string& dir, Stack* stack,
            CSetup* s) {
  s->inputs = MakeInputs(kShapeC, SubSeed(run.seed, 10 + i));
  s->traffic =
      MakeTraffic(*s->inputs.catalog, !churn, SubSeed(run.seed, 20 + i));
  const size_t distinct = churn ? kUniformDistinct : kZipfDistinct;
  for (const TrafficMix& mix : s->traffic.mixes) {
    if (mix.texts.size() != distinct) {
      run.Fail("traffic mix has " + std::to_string(mix.texts.size()) +
               " distinct queries, wanted " + std::to_string(distinct));
    }
  }
  const size_t universe = churn ? s->inputs.catalog->num_items() : 0;
  OpenStackOrExit(dir, s->inputs.engine.get(), universe, stack, &run);
  if (!churn) {
    s->build = BuildAndPublish(s->inputs, stack, &run);
    CheckBuild(s->build, &run);
    s->republish_ms = Republish(stack, &run);
  } else {
    // Seed through the maintainer: the raw log's sets arrive as one batch.
    Timer total;
    Timer t;
    s->build.input = Preprocess(s->inputs, &s->build.sets_kept);
    s->build.preprocess_s = t.ElapsedSeconds();
    size_t k = 0;
    for (const oct::CandidateSet& set : s->build.input.sets()) {
      stack->maintainer->UpsertQuery("seed#" + std::to_string(k++), set);
    }
    const oct::store::TreeVersion before = stack->log->LatestVersion();
    t.Reset();
    auto version = stack->maintainer->PumpOnce();
    s->seed_ms = t.ElapsedMillis();
    s->build.total_s = total.ElapsedSeconds();
    const bool ok =
        version.ok() && *version > 0 && CommittedOne(*stack, before);
    run.Count(ok);
    if (!ok) run.Fail("seed pump did not publish and commit");
    s->build.snapshot = stack->store->Current();
    s->build.tree_score =
        oct::ScoreTree(s->build.input, s->build.snapshot->tree(), Sim())
            .normalized;
    CheckBuild(s->build, &run);
  }
  s->build.Release();
  const LoadResult warm =
      RunTraffic(stack->port(), s->traffic, SubSeed(run.seed, 30 + i),
                 kWarmupPerConnection, 0.0);
  run.ops.Add(warm.ops);
}

/// Runs kSetups set-ups, keeps the last one's stack and inputs, and reports
/// setup_s plus the build-side end-to-end metrics of the bootstraps.
CSetup SetUpAll(Run& run, bool churn, Stack* stack,
                std::vector<BuildSample>* builds, Results* r) {
  std::vector<double> setups, totals, publishes, scores, routed;
  CSetup kept;
  for (int i = 0; i < kSetups; ++i) {
    Timer t;
    CSetup s;
    SetUpC(run, i, churn, SetupDir(run, i), stack, &s);
    setups.push_back(t.ElapsedSeconds());
    totals.push_back(s.build.total_s);
    publishes.push_back(churn ? s.seed_ms : s.build.publish_ms);
    publishes.insert(publishes.end(), s.republish_ms.begin(),
                     s.republish_ms.end());
    scores.push_back(s.build.tree_score);
    routed.push_back(RoutedFraction(*stack->router, *s.inputs.catalog,
                                    s.traffic, SubSeed(run.seed, 70 + i)));
    std::printf("set-up %d: %zu sets, build %.3f s, score %.6f, %.3f s\n", i,
                s.build.sets_kept, s.build.total_s, s.build.tree_score,
                setups.back());
    builds->push_back(std::move(s.build));
    if (i + 1 < kSetups) {
      stack->Close();  // Before the engine it routes with is freed.
    } else {
      kept = std::move(s);
    }
  }
  r->E2e("setup_s", Median(setups), "s");
  r->E2e("build_s", Median(totals), "s");
  r->E2e("tree_score", Mean(scores), "ratio");
  r->E2e("routed_frac", Mean(routed), "ratio");
  if (!churn) r->E2e("publish_p50_ms", Median(publishes), "ms");
  return kept;
}

// --- route_zipf -------------------------------------------------------------

void RouteZipf(Run& run, Results* r) {
  Stack stack;
  std::vector<BuildSample> builds;
  const CSetup s = SetUpAll(run, false, &stack, &builds, r);
  const oct::data::Catalog& catalog = *s.inputs.catalog;

  oct::obs::SetTracingEnabled(false);
  const LoadResult load = RunTraffic(stack.port(), s.traffic,
                                     SubSeed(run.seed, 50), 0, run.seconds);
  run.ops.Add(load.ops);
  oct::obs::SetTracingEnabled(run.trace);
  RequireP99(load, &run);
  LoadResult traced_load;
  LoadStats load_stats;
  if (run.trace) {
    const RouterTotals before = RouterTotalsOf(*stack.router);
    traced_load =
        RunTraffic(stack.port(), s.traffic, SubSeed(run.seed, 51), 0,
                   run.seconds);
    load_stats = LoadStats::Between(before, RouterTotalsOf(*stack.router));
    run.ops.Add(traced_load.ops);
  }
  const OracleResult oracle =
      CheckAgainstOracle(stack, catalog, s.traffic, SubSeed(run.seed, 23),
                         &run);
  RouteE2e(load, oracle, r);
  if (run.trace) {
    BuildLayers(builds, stack, r);
    RouteLayers(stack, catalog, s.traffic, oracle, load_stats,
                traced_load.P50(), load.P50(), &run, r);
  }
  RestartPhase(&stack, s.inputs.engine.get(), s.traffic, run, r);
  stack.Close();
}

// --- churn_live -------------------------------------------------------------

struct ChurnWindow {
  LoadResult load;
  std::vector<double> pump_ms, pump_steal, apply_ms, dirty_frac;
  size_t fallbacks = 0;

  /// The pumps publish_p50_ms counts (see kQuietEvents): steal during
  /// the churn window raised the median pump by up to a third.
  std::vector<size_t> Quiet() const {
    return QuietestIndices(pump_steal, kQuietShare, kQuietEvents);
  }
  double PumpP50() const { return Median(Pick(pump_ms, Quiet())); }
};

/// Pumps `batches` tail-churn batches at the fixed cadence while two
/// connections route uniformly drawn queries.
ChurnWindow Churn(Stack& stack, const TrafficMix& mix, TailChurn* churn,
                  size_t batches, uint64_t seed, Run* run) {
  ChurnWindow w;
  std::atomic<bool> stop{false};
  w.load = ClosedLoop(stack.port(), mix, seed, 0, &stop, [&] {
    auto next = std::chrono::steady_clock::now();
    for (size_t b = 0; b < batches; ++b) {
      next += kChurnCadence;
      for (size_t k = 0; k < kChurnOps; ++k) {
        churn->Next(stack.maintainer.get());
      }
      const oct::store::TreeVersion before_log = stack.log->LatestVersion();
      const oct::serve::TreeVersion before = stack.store->CurrentVersion();
      const StealMeter steal;
      Timer t;
      const auto version = [&] {
        OCT_SPAN("bench/pump_once");
        return stack.maintainer->PumpOnce();
      }();
      w.pump_ms.push_back(t.ElapsedMillis());
      w.pump_steal.push_back(steal.Share());
      const bool ok = version.ok() && *version > before &&
                      CommittedOne(stack, before_log);
      run->Count(ok);
      if (!ok) {
        run->Fail("pump " + std::to_string(b) + " published no new version");
      }
      const oct::delta::DeltaApplyOutcome o = stack.maintainer->last_outcome();
      w.apply_ms.push_back(
          (o.seconds_impact + o.seconds_rebuild + o.seconds_splice) * 1e3);
      w.dirty_frac.push_back(
          o.total_components == 0
              ? 0.0
              : static_cast<double>(o.dirty_components) / o.total_components);
      if (o.fallback_full) ++w.fallbacks;
      std::this_thread::sleep_until(next);
    }
    stop.store(true, std::memory_order_release);
  });
  return w;
}

void ChurnLive(Run& run, Results* r) {
  Stack stack;
  std::vector<BuildSample> builds;
  const CSetup s = SetUpAll(run, true, &stack, &builds, r);
  const size_t batches = std::max<size_t>(
      1, static_cast<size_t>(run.seconds * 1000.0 / kChurnCadence.count() +
                             0.5));

  TailChurn churn(s.inputs.catalog->num_items(), SubSeed(run.seed, 60));
  oct::obs::SetTracingEnabled(false);
  const ChurnWindow w = Churn(stack, s.traffic.mixes[0], &churn, batches,
                              SubSeed(run.seed, 61), &run);
  run.ops.Add(w.load.ops);
  oct::obs::SetTracingEnabled(run.trace);
  const oct::data::Catalog& catalog = *s.inputs.catalog;
  RequireP99(w.load, &run);
  ChurnWindow tw;
  LoadStats load_stats;
  if (run.trace) {
    const RouterTotals before = RouterTotalsOf(*stack.router);
    tw = Churn(stack, s.traffic.mixes[0], &churn, batches,
               SubSeed(run.seed, 62), &run);
    load_stats = LoadStats::Between(before, RouterTotalsOf(*stack.router));
    run.ops.Add(tw.load.ops);
  }

  // Final tree: model-valid on the cumulative input and within epsilon of
  // a fresh batch CTCR tree built from that input.
  const oct::OctInput cumulative =
      stack.maintainer->builder().CumulativeInput();
  const auto final_snapshot = stack.store->Current();
  const oct::Status valid = final_snapshot->tree().ValidateModel(cumulative);
  if (!valid.ok()) run.Fail("final tree ValidateModel: " + valid.ToString());
  BuildSample batch;
  BuildTree(cumulative, &run, &batch);
  const double final_score =
      oct::ScoreTree(cumulative, final_snapshot->tree(), Sim()).normalized;
  std::printf("final tree: score %.6f, fresh batch CTCR %.6f (epsilon %.2f)\n",
              final_score, batch.tree_score, kScoreEpsilon);
  if (std::abs(final_score - batch.tree_score) > kScoreEpsilon) {
    run.Fail("final tree score is not within epsilon of a batch CTCR tree");
  }
  CheckLogMatchesServed(stack, &run);

  const OracleResult oracle =
      CheckAgainstOracle(stack, catalog, s.traffic, SubSeed(run.seed, 23),
                         &run);
  RouteE2e(w.load, oracle, r);
  r->E2e("publish_p50_ms", w.PumpP50(), "ms");
  std::printf(
      "churn: %zu batches of %zu ops every %lld ms, pump p50 %.3f ms over the "
      "%zu that ran while the host stole least\n",
      batches, kChurnOps, static_cast<long long>(kChurnCadence.count()),
      w.PumpP50(), w.Quiet().size());

  if (run.trace) {
    // Layers over the same pumps as the traced publish_p50_ms.
    const std::vector<size_t> quiet = tw.Quiet();
    std::vector<double> commit;
    for (size_t i : quiet) commit.push_back(tw.pump_ms[i] - tw.apply_ms[i]);
    const double apply_ms = Median(Pick(tw.apply_ms, quiet));
    batch.preprocess_s = builds.back().preprocess_s;
    batch.sets_kept = builds.back().sets_kept;
    batch.publish_ms = Median(commit);
    BuildLayers({batch}, stack, r);
    std::printf("\ndelta: apply p50 %.3f ms, dirty fraction p50 %.4f, "
                "%zu fallbacks, publish+commit p50 %.3f ms\n",
                apply_ms, Median(tw.dirty_frac), tw.fallbacks, Median(commit));
    PrintLayerTable("publish_p50_ms", tw.PumpP50(), w.PumpP50(), "ms",
                    {{"delta.apply_ms", apply_ms, "ms", true},
                     {"serve.publish_commit_ms", Median(commit), "ms", true}});
    RouteLayers(stack, catalog, s.traffic, oracle, load_stats, tw.load.P50(),
                w.load.P50(), &run, r);
  }
  RestartPhase(&stack, s.inputs.engine.get(), s.traffic, run, r);
  stack.Close();
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Run* run) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      run->workload = value;
    } else if (key == "--seed") {
      run->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      run->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      run->trace = value == "1";
    } else if (key == "--workdir") {
      run->workdir = value;
    } else if (key == "--trace-file") {
      run->trace_file = value;
    } else {
      return false;
    }
  }
  return !run->workload.empty() && !run->workdir.empty() && run->seconds > 0;
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <build_full|route_zipf|"
                 "churn_live> --seed <n> --seconds <s> --trace <0|1> "
                 "--workdir <dir> [--trace-file <file>]\n");
    return 2;
  }
  std::function<void(Run&, Results*)> workload;
  if (run.workload == "build_full") {
    workload = BuildFull;
  } else if (run.workload == "route_zipf") {
    workload = RouteZipf;
  } else if (run.workload == "churn_live") {
    workload = ChurnLive;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", run.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(run.workdir);
  std::filesystem::create_directories(run.workdir);
  const auto cpu_start = ParseProcStat(ReadFileText("/proc/stat"));
  const size_t time_wait = TimeWaitSockets();
  std::printf("perfbench %s seed %" PRIu64 " seconds %g trace %d\n",
              run.workload.c_str(), run.seed, run.seconds, run.trace ? 1 : 0);

  // A traced run records spans throughout, except around the first pass of
  // each timed phase (builds, route window, churn window, restarts), which
  // gives the untraced figure for the overhead.
  oct::obs::SetTracingEnabled(run.trace);
  Results results;
  workload(run, &results);

  std::vector<oct::obs::SpanEvent> spans;
  if (run.trace) {
    spans = oct::obs::CollectSpans();
    PrintSpanTable(spans);
    if (!run.trace_file.empty()) {
      const oct::Status written = oct::obs::WriteStringToFile(
          run.trace_file, oct::obs::SpansToChromeTrace(spans));
      if (!written.ok()) {
        std::fprintf(stderr, "trace file: %s\n", written.ToString().c_str());
      }
    }
  }
  std::filesystem::remove_all(run.workdir);

  const auto cpu_end = ParseProcStat(ReadFileText("/proc/stat"));
  const double own_cpu_s = OwnCpuSeconds();
  double steal = 0.0;
  double others = 0.0;
  if (cpu_start && cpu_end) {
    steal = StealShare(*cpu_start, *cpu_end);
    const double own_ticks =
        own_cpu_s * static_cast<double>(sysconf(_SC_CLK_TCK));
    others = OthersBusyShare(*cpu_start, *cpu_end, own_ticks);
  }
  const bool correct = run.failures.empty() && run.ops.Failed() == 0;
  const std::vector<Metric>& metrics = run.trace ? results.layers : results.e2e;

  std::printf("\n%s metrics (%s):\n", run.workload.c_str(),
              run.trace ? "per layer, traced" : "end to end, untraced");
  for (const Metric& m : metrics) {
    std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf(
      "  operations %" PRIu64 " attempted, %" PRIu64 " failed (%" PRIu64
      " refused, %" PRIu64 " errors), failed_frac %.6f\n",
      run.ops.attempted, run.ops.Failed(), run.ops.refused, run.ops.errors,
      run.ops.FailedFrac());
  std::printf(
      "  host cpu steal %.4f, host cpu busy with other work %.4f, own cpu "
      "%.3f s, TIME_WAIT sockets at start %zu, load closed loop with %d "
      "connections\n",
      steal, others, own_cpu_s, time_wait, kConnections);
  if (!correct) {
    std::printf("  output checks FAILED: %zu mismatch(es)\n",
                run.failures.size());
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.ops.attempted);
  json += ", \"failed\": " + std::to_string(run.ops.Failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
