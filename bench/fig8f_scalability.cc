// Figure 8f: CTCR scalability over the four XYZ datasets (A, B, C, D) —
// wall-clock per phase, plus the parallel speedup of the conflict-
// enumeration phase (the paper: 5 seconds on A up to ~37 minutes on the
// 20K-query / 1.2M-item D, on 32 cores).

#include <thread>

#include "bench_util.h"
#include "ctcr/ctcr.h"
#include "kernel/item_set_index.h"
#include "util/timer.h"

int main() {
  using namespace oct;
  const Similarity sim(Variant::kJaccardThreshold, 0.8);

  std::printf("=== Figure 8f - CTCR scalability over datasets A-D ===\n");
  std::printf("scale %.3g (OCT_BENCH_SCALE=full for paper-sized runs)\n\n",
              data::BenchScale());
  TableWriter table({"dataset", "items", "sets", "conflicts(s)", "MIS(s)",
                     "build(s)", "total(s)", "score"});
  for (char name : {'A', 'B', 'C', 'D'}) {
    const data::Dataset ds = data::MakeDataset(name, sim);
    Timer timer;
    const ctcr::CtcrResult result = ctcr::BuildCategoryTree(ds.input, sim);
    const double total = timer.ElapsedSeconds();
    const TreeScore score = ScoreTree(ds.input, result.tree, sim);
    table.AddRow({ds.name, std::to_string(ds.catalog->num_items()),
                  std::to_string(ds.input.num_sets()),
                  TableWriter::Num(result.seconds_conflicts, 3),
                  TableWriter::Num(result.seconds_mis, 3),
                  TableWriter::Num(result.seconds_build, 3),
                  TableWriter::Num(total, 3),
                  TableWriter::Num(score.normalized, 4)});
  }
  std::printf("%s\n", table.ToAligned().c_str());

  // Parallel speedup of the conflict phase on dataset C.
  const data::Dataset c = data::MakeDataset('C', sim);
  std::printf("parallel conflict enumeration on dataset C:\n");
  TableWriter speedup({"threads", "seconds"});
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, hw}) {
    if (threads > hw) continue;
    if (!thread_counts.empty() && thread_counts.back() == threads) continue;
    thread_counts.push_back(threads);
  }
  for (size_t threads : thread_counts) {
    ThreadPool pool(threads);
    Timer timer;
    ctcr::AnalyzeConflicts(kernel::ItemSetIndex::Build(c.input), sim, true,
                           &pool);
    speedup.AddRow({std::to_string(threads),
                    TableWriter::Num(timer.ElapsedSeconds(), 3)});
  }
  std::printf("%s\n", speedup.ToAligned().c_str());
  return 0;
}
