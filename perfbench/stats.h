// Measurement helpers of the repository benchmark: percentiles with the
// ten-samples-beyond rule, failure accounting, host CPU steal parsing and
// the steal-free selection of latency samples, TIME_WAIT counting, span self
// times and the layer residual. Kept free of the octree library so
// selftest.cc can check them in isolation.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank index of percentile `p` (0 < p <= 1) in a sorted sample of
/// `n` >= 1 values: the smallest index with at least p of the sample at or
/// below it.
inline size_t PercentileIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly beyond the nearest-rank percentile `p`.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, p);
}

/// A percentile is reported only when at least ten samples lie beyond it;
/// fewer would make the tail one or two unlucky requests.
inline bool SupportsPercentile(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= 10;
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t k = PercentileIndex(values.size(), p);
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

/// Median; the mean of the two middle values for an even count.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Operation accounting of one run. A refused operation (a shed or 503
/// route, a rejected batch) was attempted and did not succeed, so it counts
/// as failed exactly like an error does.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t refused = 0;
  uint64_t errors = 0;

  void Add(const OpCounts& other) {
    attempted += other.attempted;
    succeeded += other.succeeded;
    refused += other.refused;
    errors += other.errors;
  }
  uint64_t Failed() const {
    return attempted > succeeded ? attempted - succeeded : 0;
  }
  double FailedFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(Failed()) /
                                static_cast<double>(attempted);
  }
};

/// Aggregate host CPU time from the first ("cpu ") line of /proc/stat, in
/// clock ticks.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t idle = 0;  // idle + iowait
  uint64_t steal = 0;
};

/// Parses the aggregate line of /proc/stat text. Fields after the label are
/// user nice system idle iowait irq softirq steal [guest guest_nice]; guest
/// time is already counted in user, so it is left out of the total.
inline std::optional<CpuTicks> ParseProcStat(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::vector<uint64_t> values;
    uint64_t v = 0;
    while (fields >> v) values.push_back(v);
    if (values.size() < 8) return std::nullopt;
    CpuTicks ticks;
    for (size_t i = 0; i < 8; ++i) ticks.total += values[i];
    ticks.idle = values[3] + values[4];
    ticks.steal = values[7];
    return ticks;
  }
  return std::nullopt;
}

/// Share of host CPU time stolen by the hypervisor between two samples.
inline double StealShare(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

/// A stretch of a load window: its length, the responses completed in it and
/// the host steal share during it.
struct Slice {
  double seconds = 0.0;
  double completed = 0.0;
  double steal = 0.0;
};

/// Host CPU steal over a stretch of time, from /proc/stat read at moments
/// `t` (seconds, increasing): each interval between two readings is a slice
/// with its own steal share.
class StealTimeline {
 public:
  void Add(double t, const CpuTicks& ticks) { readings_.push_back({t, ticks}); }

  /// Highest steal share among the intervals that [from, to] overlaps; 0
  /// for a time outside the readings.
  double Over(double from, double to) const {
    double worst = 0.0;
    for (size_t i = First(from); i + 1 < readings_.size(); ++i) {
      if (readings_[i].first > to) break;
      worst = std::max(worst, StealShare(readings_[i].second,
                                         readings_[i + 1].second));
    }
    return worst;
  }

  /// The intervals between readings, each with the `done` times (response
  /// completions) that fall in it.
  std::vector<Slice> Slices(const std::vector<double>& done) const {
    std::vector<Slice> slices;
    for (size_t i = 0; i + 1 < readings_.size(); ++i) {
      slices.push_back({readings_[i + 1].first - readings_[i].first, 0.0,
                        StealShare(readings_[i].second,
                                   readings_[i + 1].second)});
    }
    for (double t : done) {
      const size_t i = First(t);
      if (i < slices.size() && t >= readings_[i].first &&
          t < readings_[i + 1].first) {
        slices[i].completed += 1.0;
      }
    }
    return slices;
  }

 private:
  /// Index of the reading that starts the interval holding `t`.
  size_t First(double t) const {
    const auto after = std::upper_bound(
        readings_.begin(), readings_.end(), t,
        [](double v, const auto& reading) { return v < reading.first; });
    return after == readings_.begin()
               ? 0
               : static_cast<size_t>(after - readings_.begin()) - 1;
  }

  std::vector<std::pair<double, CpuTicks>> readings_;
};

/// Indices of the samples taken while the host stole least, given the steal
/// share each ran with: every one with no steal, and never fewer than
/// `min_share` of all samples or `min_count`, filled up with the lowest-steal
/// ones (ties in sample order).
inline std::vector<size_t> QuietestIndices(const std::vector<double>& steal,
                                           double min_share,
                                           size_t min_count) {
  std::vector<size_t> order(steal.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= 0.0) ++keep;
  const auto share = static_cast<size_t>(
      std::ceil(min_share * static_cast<double>(steal.size())));
  order.resize(std::min(order.size(), std::max({keep, share, min_count})));
  return order;
}

/// The `values` at `indices`.
inline std::vector<double> Pick(const std::vector<double>& values,
                                const std::vector<size_t>& indices) {
  std::vector<double> picked;
  picked.reserve(indices.size());
  for (size_t i : indices) picked.push_back(values[i]);
  return picked;
}

/// Responses per second over the slices where the host stole least: every
/// steal-free slice, and never less than `min_share` of the window's time,
/// filled up with the lowest-steal slices (ties in slice order).
inline double QuietestRate(std::vector<Slice> slices, double min_share) {
  std::stable_sort(
      slices.begin(), slices.end(),
      [](const Slice& a, const Slice& b) { return a.steal < b.steal; });
  double window = 0.0;
  for (const Slice& s : slices) window += s.seconds;
  double seconds = 0.0;
  double completed = 0.0;
  for (const Slice& s : slices) {
    if (s.steal > 0.0 && seconds >= min_share * window) break;
    seconds += s.seconds;
    completed += s.completed;
  }
  return seconds > 0.0 ? completed / seconds : 0.0;
}

/// Share of host CPU time busy with work other than this process's own
/// `own_ticks` (other processes and containers, and steal) between two
/// samples.
inline double OthersBusyShare(const CpuTicks& before, const CpuTicks& after,
                              double own_ticks) {
  if (after.total <= before.total) return 0.0;
  const double total = static_cast<double>(after.total - before.total);
  const double busy = total - static_cast<double>(after.idle - before.idle);
  return std::max(0.0, busy - own_ticks) / total;
}

/// Sockets in TIME_WAIT (state 06) in /proc/net/tcp or /proc/net/tcp6 text.
inline size_t CountTimeWait(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t count = 0;
  std::getline(in, line);  // Header.
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string sl, local, remote, state;
    if (fields >> sl >> local >> remote >> state && state == "06") ++count;
  }
  return count;
}

/// End-to-end number minus the sum of the layers measured inside it: the
/// part of the total no layer accounts for.
inline double Residual(double end_to_end, const std::vector<double>& layers) {
  double sum = 0.0;
  for (double layer : layers) sum += layer;
  return end_to_end - sum;
}

/// One span for self-time accounting.
struct SpanTimes {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Self time of every span, in span order: its duration minus the part of
/// it covered by its children (overlapping children, as on several worker
/// threads, are counted once; children are clipped to the parent).
inline std::vector<uint64_t> SelfTimes(const std::vector<SpanTimes>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const SpanTimes& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) continue;
    const SpanTimes& p = spans[parent->second];
    const uint64_t lo = std::max(span.start_ns, p.start_ns);
    const uint64_t hi = std::min(span.end_ns, p.end_ns);
    if (lo < hi) children[parent->second].push_back({lo, hi});
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = 0;
    for (const auto& [lo, hi] : kids) {
      const uint64_t from = std::max(lo, cursor);
      if (hi > from) covered += hi - from;
      cursor = std::max(cursor, hi);
    }
    const uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration > covered ? duration - covered : 0;
  }
  return self;
}

/// Share of `counts` (occurrences per distinct key) taken by the `top`
/// most frequent keys: the measured repetition of a request mix.
inline double TopShare(std::vector<uint64_t> counts, size_t top) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  std::sort(counts.rbegin(), counts.rend());
  uint64_t head = 0;
  for (size_t i = 0; i < counts.size() && i < top; ++i) head += counts[i];
  return static_cast<double>(head) / static_cast<double>(total);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
