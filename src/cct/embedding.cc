#include "cct/embedding.h"

#include <algorithm>
#include <cmath>

namespace oct {
namespace cct {

double Embeddings::Distance(size_t a, size_t b) const {
  // ||x - y||^2 = ||x||^2 + ||y||^2 - 2 <x, y>; rows are sorted by column.
  const auto& ra = rows_[a];
  const auto& rb = rows_[b];
  double dot = 0.0;
  size_t i = 0, j = 0;
  while (i < ra.size() && j < rb.size()) {
    if (ra[i].col < rb[j].col) {
      ++i;
    } else if (ra[i].col > rb[j].col) {
      ++j;
    } else {
      dot += static_cast<double>(ra[i].value) * rb[j].value;
      ++i;
      ++j;
    }
  }
  const double sq = norms_[a] + norms_[b] - 2.0 * dot;
  return sq > 0.0 ? std::sqrt(sq) : 0.0;
}

std::vector<float> Embeddings::Dense(size_t r, size_t dims) const {
  std::vector<float> out(dims, 0.0f);
  for (const Entry& e : rows_[r]) out[e.col] = e.value;
  return out;
}

Embeddings EmbedInputSets(const kernel::ItemSetIndex& index,
                          const Similarity& sim) {
  const OctInput& input = index.input();
  const size_t n = input.num_sets();
  Embeddings emb;
  emb.rows_.resize(n);
  emb.norms_.assign(n, 0.0);
  kernel::OverlapScratch scratch(index);
  for (SetId q = 0; q < n; ++q) {
    // Every set sharing an item with q, q itself included, in first-touch
    // order: the order the norm accumulates in.
    const std::vector<kernel::PairCount>& partners =
        scratch.Partners(q, /*later_only=*/false);
    auto& row = emb.rows_[q];
    row.reserve(partners.size());
    const size_t q_size = input.set(q).items.size();
    for (const kernel::PairCount& partner : partners) {
      const SetId other = partner.other;
      const size_t o_size = input.set(other).items.size();
      const size_t in = partner.inter;
      double value = 0.0;
      switch (sim.variant()) {
        case Variant::kJaccardCutoff:
        case Variant::kJaccardThreshold:
        case Variant::kExact:
          value = JaccardFromSizes(q_size, o_size, in);
          break;
        case Variant::kF1Cutoff:
        case Variant::kF1Threshold:
          value = F1FromSizes(q_size, o_size, in);
          break;
        case Variant::kPerfectRecall:
          value = 0.5 * (RecallFromSizes(q_size, in) +
                         PrecisionFromSizes(o_size, in));
          break;
      }
      if (value > 0.0) {
        row.push_back({other, static_cast<float>(value)});
        emb.norms_[q] += value * value;
      }
    }
    std::sort(row.begin(), row.end(),
              [](const Embeddings::Entry& a, const Embeddings::Entry& b) {
                return a.col < b.col;
              });
  }
  return emb;
}

}  // namespace cct
}  // namespace oct
