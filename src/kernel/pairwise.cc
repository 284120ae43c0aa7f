#include "kernel/pairwise.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace oct {
namespace kernel {

OverlapScratch::OverlapScratch(const ItemSetIndex& index)
    : index_(&index), strict_item_(index.strict_items()) {
  inter_.assign(index.num_sets(), 0);
  if (strict_item_ != nullptr) inter_strict_.assign(index.num_sets(), 0);
}

const std::vector<PairCount>& OverlapScratch::Partners(SetId q,
                                                       bool later_only) {
  out_.clear();
  touched_.clear();
  const bool track_strict = strict_item_ != nullptr;
  for (ItemId item : index_->input().set(q).items) {
    const bool strict = !track_strict || (*strict_item_)[item] != 0;
    for (SetId other : index_->SetsOf(item)) {
      if (later_only && other <= q) continue;
      if (inter_[other]++ == 0) touched_.push_back(other);
      if (track_strict && strict) ++inter_strict_[other];
    }
  }
  out_.reserve(touched_.size());
  for (SetId other : touched_) {
    const uint32_t inter = inter_[other];
    inter_[other] = 0;
    uint32_t inter_strict = inter;
    if (track_strict) {
      inter_strict = inter_strict_[other];
      inter_strict_[other] = 0;
    }
    out_.push_back({other, inter, inter_strict});
  }
  pairs_emitted_ += out_.size();
  return out_;
}

OverlapScanStats ScanOverlapChunks(
    const ItemSetIndex& index, ThreadPool* pool,
    const std::function<void(size_t begin, size_t end,
                             OverlapScratch& scratch)>& chunk_fn) {
  OCT_SPAN("kernel/overlap_scan");
  static obs::Counter* visited_counter =
      obs::MetricsRegistry::Default()->GetCounter("kernel.pairs_visited");
  static obs::Counter* pruned_counter =
      obs::MetricsRegistry::Default()->GetCounter("kernel.pairs_pruned");
  if (pool == nullptr) pool = DefaultThreadPool();
  const size_t n = index.num_sets();
  std::mutex mu;
  size_t visited = 0;
  pool->ParallelFor(n, [&](size_t begin, size_t end) {
    OverlapScratch scratch(index);
    chunk_fn(begin, end, scratch);
    std::unique_lock<std::mutex> lock(mu);
    visited += scratch.pairs_emitted();
  });
  OverlapScanStats stats;
  stats.pairs_visited = visited;
  const size_t all_pairs = n * (n - 1) / 2;
  stats.pairs_pruned = visited <= all_pairs ? all_pairs - visited : 0;
  visited_counter->Increment(stats.pairs_visited);
  pruned_counter->Increment(stats.pairs_pruned);
  return stats;
}

std::vector<float> CondensedEuclideanDistances(
    const std::vector<std::vector<SparseVecEntry>>& rows,
    const std::vector<double>& squared_norms, ThreadPool* pool) {
  OCT_SPAN("kernel/distance_matrix");
  const size_t n = rows.size();
  OCT_CHECK_EQ(squared_norms.size(), n);
  if (n <= 1) return {};

  // Column -> (row, value) lists, rows ascending (columns are sorted per
  // row, so the last entry carries the row's maximum column).
  uint32_t num_cols = 0;
  for (const auto& row : rows) {
    if (!row.empty()) num_cols = std::max(num_cols, row.back().col + 1);
  }
  std::vector<std::vector<std::pair<uint32_t, float>>> by_col(num_cols);
  for (uint32_t r = 0; r < n; ++r) {
    for (const SparseVecEntry& e : rows[r]) {
      by_col[e.col].emplace_back(r, e.value);
    }
  }

  std::vector<float> dist(n * (n - 1) / 2);
  if (pool == nullptr) pool = DefaultThreadPool();
  // Row i accumulates its dot products against every later row j in
  // ascending-column order — the exact summation order of the two-pointer
  // merge in cct::Embeddings::Distance, so each entry is bit-identical to
  // the serial oracle loop.
  pool->ParallelFor(n - 1, [&](size_t begin, size_t end) {
    std::vector<double> dot(n, 0.0);
    for (size_t i = begin; i < end; ++i) {
      for (const SparseVecEntry& e : rows[i]) {
        const auto& col = by_col[e.col];
        auto it = std::upper_bound(
            col.begin(), col.end(), i,
            [](size_t value, const std::pair<uint32_t, float>& p) {
              return value < p.first;
            });
        for (; it != col.end(); ++it) {
          dot[it->first] += static_cast<double>(e.value) * it->second;
        }
      }
      const size_t base = i * n - i * (i + 1) / 2;
      for (size_t j = i + 1; j < n; ++j) {
        const double sq = squared_norms[i] + squared_norms[j] - 2.0 * dot[j];
        dist[base + (j - i - 1)] =
            static_cast<float>(sq > 0.0 ? std::sqrt(sq) : 0.0);
        dot[j] = 0.0;
      }
    }
  });
  return dist;
}

size_t MinOverlapForJaccard(size_t size_a, double t) {
  OCT_DCHECK(t >= 0.0 && t <= 1.0 + 1e-12);
  const double bound = t * static_cast<double>(size_a);
  const size_t o = static_cast<size_t>(std::ceil(bound - 1e-9));
  const size_t cap = size_a == 0 ? 1 : size_a;
  return std::max<size_t>(1, std::min(o, cap));
}

size_t MinOverlapForF1(size_t size_a, double t) {
  OCT_DCHECK(t >= 0.0 && t <= 1.0 + 1e-12);
  const double bound = t * static_cast<double>(size_a) / (2.0 - t);
  const size_t o = static_cast<size_t>(std::ceil(bound - 1e-9));
  const size_t cap = size_a == 0 ? 1 : size_a;
  return std::max<size_t>(1, std::min(o, cap));
}

}  // namespace kernel
}  // namespace oct
