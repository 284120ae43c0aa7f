// Shared helpers for the figure/table benches: delta sweeps over the five
// algorithms, with aligned-table output matching the series the paper
// plots.
//
// Every bench that goes through PrintHeader/Sweep* also participates in
// structured output for free:
//   OCT_BENCH_JSON=<path>  write a per-run JSON report (tables + metrics +
//                          span aggregates + hardware perf counters) at
//                          process exit
//   OCT_TRACE=<path>       enable span tracing and write a Chrome-trace
//                          (chrome://tracing / Perfetto) file at exit
//
// Reports carry a "perf" object: whole-process and per-phase hardware
// counters (cycles, instructions, LLC references/misses, derived IPC and
// miss rate) via util/perf_counters.h, or the explicit marker
// "perf_unavailable" when perf_event_open is denied — so a snapshot never
// silently pretends it measured the hardware. docs/PERFORMANCE.md
// documents how to read these fields; tools/bench_diff.py diffs them
// advisorily.

#ifndef OCT_BENCH_BENCH_UTIL_H_
#define OCT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "eval/harness.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/perf_counters.h"
#include "util/table_writer.h"

namespace oct {
namespace bench {

/// Collects the tables a bench prints and, when OCT_BENCH_JSON / OCT_TRACE
/// are set, writes the structured report(s) at exit. Meyers singleton;
/// PrintHeader registers the atexit hook.
class BenchReport {
 public:
  static BenchReport& Get() {
    static BenchReport report;
    return report;
  }

  void SetName(const std::string& name) {
    if (name_.empty()) name_ = name;
  }

  /// Stores a table's rows (as JSON) under `title`; repeated titles (one
  /// sweep per dataset, say) get a numeric suffix to keep JSON keys unique.
  void AddTable(const std::string& title, const TableWriter& table) {
    std::string key = title;
    int n = 1;
    while (HasTable(key)) key = title + "_" + std::to_string(++n);
    tables_.emplace_back(std::move(key), table.ToJson());
  }

  /// Records a named hardware-counter sample (one measured phase). Samples
  /// with available == false are dropped — the report-level marker already
  /// says why there are none.
  void AddPerfSample(const std::string& name, const util::PerfSample& sample) {
    if (!sample.available) return;
    std::string key = name;
    int n = 1;
    for (bool dup = true; dup;) {
      dup = false;
      for (const auto& [existing, s] : perf_phases_) {
        if (existing == key) {
          key = name + "_" + std::to_string(++n);
          dup = true;
          break;
        }
      }
    }
    perf_phases_.emplace_back(std::move(key), sample);
  }

  /// Installs the exit hook once and enables tracing when OCT_TRACE is set.
  void Init() {
    if (initialized_) return;
    initialized_ = true;
    if (std::getenv("OCT_TRACE") != nullptr) {
      obs::SetTracingEnabled(true);
    }
    // Whole-process counters: every bench gets at least the "process"
    // perf sample without instrumenting each phase.
    process_counters_.Start();
    std::atexit([] { BenchReport::Get().WriteIfRequested(); });
  }

  void WriteIfRequested() {
    const char* trace_path = std::getenv("OCT_TRACE");
    std::vector<obs::SpanEvent> spans;
    if (trace_path != nullptr || std::getenv("OCT_BENCH_JSON") != nullptr) {
      spans = obs::CollectSpans();
    }
    if (trace_path != nullptr) {
      const Status st = obs::WriteStringToFile(
          trace_path, obs::SpansToChromeTrace(spans));
      if (!st.ok()) {
        std::fprintf(stderr, "OCT_TRACE: %s\n", st.ToString().c_str());
      }
    }
    const char* json_path = std::getenv("OCT_BENCH_JSON");
    if (json_path == nullptr) return;
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_.empty() ? "unnamed" : name_);
    w.Key("scale").Double(data::BenchScale());
    w.Key("tables").BeginObject();
    for (const auto& [title, json] : tables_) {
      w.Key(title).Raw(json);
    }
    w.EndObject();
    w.Key("metrics").Raw(obs::MetricsToJson(*obs::MetricsRegistry::Default()));
    w.Key("spans").Raw(obs::SpansToJson(spans));
    WritePerf(w);
    w.EndObject();
    const Status st = obs::WriteStringToFile(json_path, w.str());
    if (!st.ok()) {
      std::fprintf(stderr, "OCT_BENCH_JSON: %s\n", st.ToString().c_str());
    }
  }

 private:
  BenchReport() = default;
  bool HasTable(const std::string& key) const {
    for (const auto& [title, json] : tables_) {
      if (title == key) return true;
    }
    return false;
  }

  static void WriteSample(obs::JsonWriter& w, const util::PerfSample& s) {
    w.BeginObject();
    w.Key("cycles").Uint(s.cycles);
    w.Key("instructions").Uint(s.instructions);
    w.Key("ipc").Double(s.Ipc());
    if (s.has_llc) {
      w.Key("llc_references").Uint(s.llc_references);
      w.Key("llc_misses").Uint(s.llc_misses);
      w.Key("llc_miss_rate").Double(s.LlcMissRate());
    }
    w.EndObject();
  }

  /// The "perf" object: either the samples or the explicit
  /// "perf_unavailable" marker — never silent absence.
  void WritePerf(obs::JsonWriter& w) {
    w.Key("perf").BeginObject();
    const bool available = util::PerfCounters::Supported();
    w.Key("available").Bool(available);
    if (!available) {
      w.Key("marker").String("perf_unavailable");
      w.EndObject();
      return;
    }
    w.Key("process");
    WriteSample(w, process_counters_.Stop());
    w.Key("phases").BeginObject();
    for (const auto& [phase, sample] : perf_phases_) {
      w.Key(phase);
      WriteSample(w, sample);
    }
    w.EndObject();
    w.EndObject();
  }

  bool initialized_ = false;
  std::string name_;
  std::vector<std::pair<std::string, std::string>> tables_;
  std::vector<std::pair<std::string, util::PerfSample>> perf_phases_;
  util::PerfCounters process_counters_;
};

/// RAII phase measurement: counts the enclosed scope's hardware events and
/// files them under `name` in the report's perf.phases. Free when perf is
/// unavailable (both ends are no-ops).
class PerfPhase {
 public:
  explicit PerfPhase(std::string name) : name_(std::move(name)) {
    counters_.Start();
  }
  ~PerfPhase() { BenchReport::Get().AddPerfSample(name_, counters_.Stop()); }

  PerfPhase(const PerfPhase&) = delete;
  PerfPhase& operator=(const PerfPhase&) = delete;

 private:
  std::string name_;
  util::PerfCounters counters_;
};

/// Prints a standard bench header with the dataset shape and scale.
inline void PrintHeader(const std::string& title, const data::Dataset& ds) {
  BenchReport::Get().SetName(title);
  BenchReport::Get().Init();
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "dataset %s: %zu items, %zu candidate sets (scale %.3g; set "
      "OCT_BENCH_SCALE=full for paper-sized runs)\n\n",
      ds.name.c_str(), ds.catalog->num_items(), ds.input.num_sets(),
      data::BenchScale());
}

/// Runs every algorithm at each delta and prints one row per delta with a
/// normalized-score column per algorithm (the layout of Figures 8a-8c).
inline void SweepAllAlgorithms(const data::Dataset& ds, Variant variant,
                               const std::vector<double>& deltas) {
  std::vector<std::string> header = {"delta"};
  for (eval::Algorithm algo : eval::AllAlgorithms()) {
    header.push_back(eval::AlgorithmName(algo));
  }
  TableWriter table(header);
  for (double delta : deltas) {
    const Similarity sim(variant, delta);
    std::vector<std::string> row = {TableWriter::Num(delta, 2)};
    for (eval::Algorithm algo : eval::AllAlgorithms()) {
      const eval::AlgoRun run = eval::RunAlgorithm(algo, ds, sim);
      row.push_back(TableWriter::Num(run.score.normalized, 4));
    }
    table.AddRow(std::move(row));
  }
  BenchReport::Get().AddTable("all_algorithms_delta_sweep", table);
  std::printf("%s\n", table.ToAligned().c_str());
}

/// Runs CTCR only across deltas (the layout of Figures 8d/8g/8h).
inline void SweepCtcr(const data::Dataset& ds, Variant variant,
                      const std::vector<double>& deltas) {
  TableWriter table({"delta", "CTCR score", "covered", "categories"});
  for (double delta : deltas) {
    const Similarity sim(variant, delta);
    const eval::AlgoRun run =
        eval::RunAlgorithm(eval::Algorithm::kCtcr, ds, sim);
    table.AddRow({TableWriter::Num(delta, 2),
                  TableWriter::Num(run.score.normalized, 4),
                  std::to_string(run.score.num_covered),
                  std::to_string(run.num_categories)});
  }
  BenchReport::Get().AddTable("ctcr_delta_sweep", table);
  std::printf("%s\n", table.ToAligned().c_str());
}

inline std::vector<double> Range(double lo, double hi, double step) {
  std::vector<double> out;
  for (double d = lo; d <= hi + 1e-9; d += step) {
    out.push_back(d < hi ? d : hi);  // Clamp accumulated FP error.
  }
  return out;
}

}  // namespace bench
}  // namespace oct

#endif  // OCT_BENCH_BENCH_UTIL_H_
