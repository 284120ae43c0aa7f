// Ablation studies for the design choices called out in DESIGN.md and
// Section 5.4 ("Ablation tests indicated that all preprocessing steps were
// significant"):
//   (1) preprocessing — query merging on/off, scatter filter on/off;
//   (2) CTCR          — intermediate categories on/off, condensing on/off,
//                       exact-MIS vs greedy+local-search MIS, item bound 2;
//   (3) CCT           — average vs single vs complete linkage.

#include "bench_util.h"
#include "cct/cct.h"
#include "core/scoring.h"
#include "ctcr/ctcr.h"
#include "util/timer.h"

namespace {

using namespace oct;

void PreprocessingAblation() {
  std::printf("--- preprocessing ablation (dataset B, threshold Jaccard 0.8) "
              "---\n");
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  TableWriter table({"configuration", "sets", "CTCR score", "build(s)"});
  struct Config {
    const char* name;
    bool merge;
  };
  for (const Config& config :
       {Config{"full pipeline", true}, Config{"no query merging", false}}) {
    data::DatasetOptions opts;
    opts.merge_similar = config.merge;
    const data::Dataset ds =
        data::MakeDataset('B', sim, data::BenchScale(), opts);
    Timer timer;
    const ctcr::CtcrResult run = ctcr::BuildCategoryTree(ds.input, sim);
    const double secs = timer.ElapsedSeconds();
    const TreeScore score = ScoreTree(ds.input, run.tree, sim);
    table.AddRow({config.name, std::to_string(ds.input.num_sets()),
                  TableWriter::Num(score.normalized, 4),
                  TableWriter::Num(secs, 3)});
  }
  std::printf("%s\n", table.ToAligned().c_str());
  std::printf("(merging shrinks the input and speeds construction while the "
              "score holds — Section 5.1)\n\n");
}

void CtcrAblation() {
  std::printf("--- CTCR ablation (dataset C, threshold Jaccard 0.8) ---\n");
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const data::Dataset ds = data::MakeDataset('C', sim);
  TableWriter table({"configuration", "score", "covered", "categories"});
  struct Config {
    const char* name;
    bool intermediates;
    bool condense;
    bool exact_mis;
    uint32_t item_bound;
  };
  for (const Config& config :
       {Config{"full CTCR", true, true, true, 1},
        Config{"no intermediate cats", false, true, true, 1},
        Config{"no condensing", true, false, true, 1},
        Config{"greedy MIS only", true, true, false, 1},
        Config{"item bound 2 (every item)", true, true, true, 2}}) {
    ctcr::CtcrOptions options;
    options.add_intermediate_categories = config.intermediates;
    options.condense = config.condense;
    if (!config.exact_mis) {
      options.mis.exact_kernel_limit = 0;  // Forces greedy + local search.
    }
    // Section 3.3, "Extensions": an item may sit on up to `item_bound`
    // branches, counted once at their common ancestors.
    OctInput input = ds.input;
    if (config.item_bound > 1) {
      input.set_item_bounds(
          std::vector<uint32_t>(input.universe_size(), config.item_bound));
    }
    const ctcr::CtcrResult run = ctcr::BuildCategoryTree(input, sim, options);
    const TreeScore score = ScoreTree(input, run.tree, sim);
    table.AddRow({config.name, TableWriter::Num(score.normalized, 4),
                  std::to_string(score.num_covered),
                  std::to_string(run.tree.NumCategories())});
  }
  std::printf("%s\n\n", table.ToAligned().c_str());
}

void CctLinkageAblation() {
  std::printf("--- CCT linkage ablation (dataset C, threshold Jaccard 0.8; "
              "the paper reports average linkage best) ---\n");
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const data::Dataset ds = data::MakeDataset('C', sim);
  TableWriter table({"linkage", "score", "covered"});
  struct Config {
    const char* name;
    cct::Linkage linkage;
  };
  for (const Config& config :
       {Config{"average (UPGMA)", cct::Linkage::kAverage},
        Config{"single", cct::Linkage::kSingle},
        Config{"complete", cct::Linkage::kComplete}}) {
    cct::CctOptions options;
    options.linkage = config.linkage;
    const cct::CctResult run =
        cct::BuildCategoryTree(ds.input, sim, options);
    const TreeScore score = ScoreTree(ds.input, run.tree, sim);
    table.AddRow({config.name, TableWriter::Num(score.normalized, 4),
                  std::to_string(score.num_covered)});
  }
  std::printf("%s\n", table.ToAligned().c_str());
}

}  // namespace

int main() {
  std::printf("=== Ablation studies ===\n\n");
  PreprocessingAblation();
  CtcrAblation();
  CctLinkageAblation();
  return 0;
}
