// Trend discovery (the "Kobe memorabilia" scenario of Section 5.4): a
// short-lived demand spike only surfaces as a candidate category when the
// preprocessing window is skewed to recent days. The example also commits
// the regenerated tree to a version log and reloads it.
//
//   $ ./build/examples/trend_discovery

#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "core/scoring.h"
#include "core/serialization.h"
#include "ctcr/ctcr.h"
#include "data/datasets.h"
#include "store/version_log.h"

namespace {

int Fail(const char* what, const oct::Status& status) {
  std::fprintf(stderr, "failed to %s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  using namespace oct;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);

  // Dataset E twice: once preprocessed over the full 90-day window, once
  // over the final 10 days only.
  data::DatasetOptions full_window;
  const data::Dataset steady = data::MakeDataset('E', sim, 0.08, full_window);

  data::DatasetOptions recent_window;
  recent_window.recent_window_only = true;
  recent_window.window_days = 10;
  const data::Dataset trendy = data::MakeDataset('E', sim, 0.08, recent_window);

  std::unordered_set<std::string> steady_labels;
  for (const auto& s : steady.input.sets()) steady_labels.insert(s.label);

  std::printf("90-day window: %zu candidate sets\n",
              steady.input.num_sets());
  std::printf("10-day window: %zu candidate sets\n\n",
              trendy.input.num_sets());
  std::printf("trend queries admitted only by the recent window:\n");
  size_t shown = 0;
  for (const auto& s : trendy.input.sets()) {
    if (steady_labels.count(s.label)) continue;
    if (++shown > 8) {
      std::printf("  ...\n");
      break;
    }
    std::printf("  %-40s (weight %.0f, %zu items)\n", s.label.c_str(),
                s.weight, s.items.size());
  }
  if (shown == 0) {
    std::printf("  (none at this scale — rerun with OCT_BENCH_SCALE=0.2)\n");
  }

  // Build the trend-aware tree.
  const ctcr::CtcrResult run = ctcr::BuildCategoryTree(trendy.input, sim);
  const TreeScore score = ScoreTree(trendy.input, run.tree, sim);
  std::printf("\ntrend-aware tree: %zu categories, %zu/%zu sets covered, "
              "normalized score %.3f\n",
              run.tree.NumCategories(), score.num_covered,
              trendy.input.num_sets(), score.normalized);

  // Persist it the way the serving stack does: commit it to a version log
  // (the lineage taxonomists diff across regenerations), then reload it.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "octree_trend_log").string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // Each run starts a fresh lineage.
  auto log = store::VersionLog::Open(dir);
  if (!log.ok()) return Fail("open version log", log.status());
  const Status committed = (*log)->Commit(run.tree, 1, "trend-aware");
  if (!committed.ok()) return Fail("commit tree", committed);
  auto reloaded = (*log)->OpenLatest();
  if (!reloaded.ok()) return Fail("reload tree", reloaded.status());
  if (SerializeTree(*reloaded) != SerializeTree(run.tree)) {
    std::fprintf(stderr, "reloaded tree differs from the committed one\n");
    return 1;
  }
  std::printf("tree committed to version log %s and reloaded identically "
              "(%zu categories)\n",
              dir.c_str(), reloaded->NumCategories());
  return 0;
}
