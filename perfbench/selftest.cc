// Self-tests of the benchmark's measurement helpers (stats.h). run.py runs
// this binary before every workload and refuses to report numbers when it
// fails, so a broken percentile or residual can never reach a result.
//
//   $ .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL (line %d): %s\n", line, what);
    ++g_failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  using perfbench::Percentile;
  using perfbench::PercentileIndex;
  using perfbench::SamplesBeyond;
  using perfbench::SupportsPercentile;
  CHECK(PercentileIndex(1, 0.99) == 0);
  CHECK(PercentileIndex(100, 0.5) == 49);
  CHECK(PercentileIndex(100, 0.99) == 98);
  CHECK(PercentileIndex(1000, 0.99) == 989);
  CHECK(PercentileIndex(5, 1.0) == 4);
  // p99 needs ten samples beyond it: 1000 leaves exactly ten, 999 nine.
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SupportsPercentile(1000, 0.99));
  CHECK(!SupportsPercentile(999, 0.99));
  CHECK(!SupportsPercentile(0, 0.5));
  CHECK(SupportsPercentile(21, 0.5));
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(Near(Percentile(v, 0.5), 50.0));
  CHECK(Near(Percentile(v, 0.99), 99.0));
  CHECK(Near(Percentile({}, 0.5), 0.0));
  CHECK(Near(perfbench::Median({3.0, 1.0, 2.0}), 2.0));
  CHECK(Near(perfbench::Median({4.0, 1.0, 2.0, 3.0}), 2.5));
}

void TestFailedFrac() {
  perfbench::OpCounts ops;
  CHECK(Near(ops.FailedFrac(), 0.0));
  ops.attempted = 100;
  ops.succeeded = 97;
  ops.refused = 2;  // Shed / 503: attempted, not served.
  ops.errors = 1;
  CHECK(ops.Failed() == 3);
  CHECK(Near(ops.FailedFrac(), 0.03));
  // Refusals alone are failures too.
  perfbench::OpCounts shed_only;
  shed_only.attempted = 10;
  shed_only.succeeded = 9;
  shed_only.refused = 1;
  CHECK(Near(shed_only.FailedFrac(), 0.1));
  perfbench::OpCounts sum;
  sum.Add(ops);
  sum.Add(shed_only);
  CHECK(sum.attempted == 110 && sum.Failed() == 4);
}

void TestSteal() {
  const std::string before =
      "cpu  100 5 50 800 10 0 5 30 7 0\n"
      "cpu0 25 1 12 200 2 0 1 8 0 0\n"
      "intr 12345\n";
  const std::string after =
      "cpu  150 5 70 900 10 0 5 60 9 0\n"
      "cpu0 40 1 20 230 2 0 1 15 0 0\n";
  const auto b = perfbench::ParseProcStat(before);
  const auto a = perfbench::ParseProcStat(after);
  CHECK(b.has_value() && a.has_value());
  if (!b || !a) return;
  CHECK(b->total == 1000 && b->steal == 30);  // Guest columns excluded.
  CHECK(b->idle == 810);
  CHECK(a->total == 1200 && a->steal == 60);
  CHECK(Near(perfbench::StealShare(*b, *a), 30.0 / 200.0));
  CHECK(Near(perfbench::StealShare(*a, *b), 0.0));
  // 200 ticks elapsed, 100 idle: 100 busy, 40 of them this process's own.
  CHECK(Near(perfbench::OthersBusyShare(*b, *a, 40.0), 60.0 / 200.0));
  CHECK(Near(perfbench::OthersBusyShare(*b, *a, 500.0), 0.0));
  CHECK(!perfbench::ParseProcStat("cpu0 1 2 3\n").has_value());
  CHECK(!perfbench::ParseProcStat("cpu  1 2 3\n").has_value());
}

void TestStealTimeline() {
  auto ticks = [](uint64_t total, uint64_t steal) {
    perfbench::CpuTicks t;
    t.total = total;
    t.steal = steal;
    return t;
  };
  perfbench::StealTimeline timeline;
  timeline.Add(0.0, ticks(0, 0));
  timeline.Add(0.1, ticks(40, 0));   // [0, 0.1): no steal.
  timeline.Add(0.2, ticks(80, 4));   // [0.1, 0.2): 4 of 40 ticks.
  timeline.Add(0.3, ticks(120, 6));  // [0.2, 0.3): 2 of 40.
  CHECK(Near(timeline.Over(0.02, 0.05), 0.0));
  CHECK(Near(timeline.Over(0.12, 0.15), 0.1));
  CHECK(Near(timeline.Over(0.25, 0.29), 0.05));
  // Straddling two intervals takes the worse one.
  CHECK(Near(timeline.Over(0.09, 0.11), 0.1));
  CHECK(Near(timeline.Over(0.19, 0.21), 0.1));
  // Outside the readings there is nothing to blame.
  CHECK(Near(timeline.Over(-1.0, -0.5), 0.0));
  CHECK(Near(timeline.Over(0.5, 0.6), 0.0));
  CHECK(Near(perfbench::StealTimeline().Over(0.0, 1.0), 0.0));
  // Completions fall into the slice that holds them; outside ones are lost.
  const std::vector<perfbench::Slice> slices =
      timeline.Slices({0.05, 0.15, 0.16, 0.25, 0.35, -0.1});
  CHECK(slices.size() == 3);
  if (slices.size() != 3) return;
  CHECK(Near(slices[0].seconds, 0.1) && Near(slices[0].completed, 1.0) &&
        Near(slices[0].steal, 0.0));
  CHECK(Near(slices[1].completed, 2.0) && Near(slices[1].steal, 0.1));
  CHECK(Near(slices[2].completed, 1.0) && Near(slices[2].steal, 0.05));
}

void TestQuietestRate() {
  using perfbench::QuietestRate;
  const std::vector<perfbench::Slice> slices = {
      {1.0, 100.0, 0.0}, {1.0, 50.0, 0.2}, {1.0, 80.0, 0.1}, {1.0, 90.0, 0.0}};
  // The steal-free slices cover the share asked for.
  CHECK(Near(QuietestRate(slices, 0.25), 95.0));
  // Filled up with the lowest-steal slice.
  CHECK(Near(QuietestRate(slices, 0.75), 90.0));
  CHECK(Near(QuietestRate(slices, 1.0), 80.0));
  CHECK(Near(QuietestRate({}, 0.25), 0.0));
}

void TestQuietestIndices() {
  using perfbench::QuietestIndices;
  const std::vector<double> steal = {0.0, 0.2, 0.0, 0.1, 0.0, 0.3, 0.0, 0.1};
  // Every steal-free sample, in sample order, when they are enough.
  CHECK((QuietestIndices(steal, 0.25, 2) == std::vector<size_t>{0, 2, 4, 6}));
  // Filled up with the lowest-steal ones, ties in sample order.
  CHECK((QuietestIndices(steal, 0.75, 2) ==
         std::vector<size_t>{0, 2, 4, 6, 3, 7}));
  CHECK((QuietestIndices(steal, 0.0, 5) ==
         std::vector<size_t>{0, 2, 4, 6, 3}));
  // Never more than there are.
  CHECK(QuietestIndices(steal, 0.0, 100).size() == steal.size());
  CHECK(QuietestIndices({}, 0.25, 1000).empty());
  // A steal-free host keeps everything.
  CHECK(QuietestIndices({0.0, 0.0}, 0.25, 1).size() == 2);
  CHECK((perfbench::Pick({5.0, 6.0, 7.0}, {2, 0}) ==
         std::vector<double>{7.0, 5.0}));
}

void TestTimeWait() {
  const std::string tcp =
      "  sl  local_address rem_address   st tx_queue rx_queue\n"
      "   0: 0100007F:1F90 00000000:0000 0A 00000000:00000000\n"
      "   1: 0100007F:1F90 0100007F:A1B2 06 00000000:00000000\n"
      "   2: 0100007F:1F90 0100007F:A1B3 06 00000000:00000000\n"
      "   3: 0100007F:1F90 0100007F:A1B4 01 00000000:00000000\n";
  CHECK(perfbench::CountTimeWait(tcp) == 2);
  CHECK(perfbench::CountTimeWait("") == 0);
}

void TestResidualAndSelfTime() {
  CHECK(Near(perfbench::Residual(10.0, {3.0, 4.5}), 2.5));
  CHECK(Near(perfbench::Residual(10.0, {}), 10.0));
  CHECK(Near(perfbench::Residual(5.0, {3.0, 4.0}), -2.0));
  // root [0,100) with children [10,30) and [20,50) overlapping (counted
  // once: 40 covered) and a grandchild [12,18) under the first child.
  std::vector<perfbench::SpanTimes> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 30}, {3, 1, 20, 50}, {4, 2, 12, 18},
      // A child leaking past its parent is clipped to it.
      {5, 0, 200, 210}, {6, 5, 205, 230},
      // An orphan (parent not recorded) keeps its full duration.
      {7, 99, 300, 340}};
  const std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  CHECK(self.size() == spans.size());
  CHECK(self[0] == 60);
  CHECK(self[1] == 14);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  CHECK(self[4] == 5);
  CHECK(self[5] == 25);
  CHECK(self[6] == 40);
}

void TestTopShare() {
  CHECK(Near(perfbench::TopShare({5, 1, 3, 1}, 2), 0.8));
  CHECK(Near(perfbench::TopShare({2, 2}, 32), 1.0));
  CHECK(Near(perfbench::TopShare({}, 32), 0.0));
}

}  // namespace

int main() {
  TestPercentiles();
  TestFailedFrac();
  TestSteal();
  TestStealTimeline();
  TestQuietestIndices();
  TestQuietestRate();
  TestTimeWait();
  TestResidualAndSelfTime();
  TestTopShare();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
