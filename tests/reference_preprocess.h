// Reference implementation of preprocessing step (4), merging similar
// queries, kept as the oracle for data::MergeSimilarSets.
//
// Each pass indexes items to sets in a hash map and computes each candidate
// pair's overlap with a sorted-merge intersection. The production pass
// indexes over a CSR and probes a bitmap instead, with the same prefix
// filter, candidate order and merge rule, so on every input it must leave
// the same sets in the same order, with the same items, weights and labels.

#ifndef OCT_TESTS_REFERENCE_PREPROCESS_H_
#define OCT_TESTS_REFERENCE_PREPROCESS_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/input.h"
#include "core/similarity.h"
#include "kernel/pairwise.h"

namespace oct {
namespace reference {

inline void MergeSimilarSets(const Similarity& sim, size_t max_passes,
                             std::vector<CandidateSet>* sets) {
  const double band_low = sim.delta() + 0.75 * (1.0 - sim.delta());
  const bool use_f1 = sim.variant() == Variant::kF1Cutoff ||
                      sim.variant() == Variant::kF1Threshold;
  for (size_t pass = 0; pass < max_passes; ++pass) {
    bool merged_any = false;
    std::unordered_map<ItemId, std::vector<size_t>> index;
    for (size_t i = 0; i < sets->size(); ++i) {
      for (ItemId item : (*sets)[i].items) index[item].push_back(i);
    }
    std::vector<char> dead(sets->size(), 0);
    std::vector<size_t> candidates;
    for (size_t i = 0; i < sets->size(); ++i) {
      if (dead[i]) continue;
      // Partners with a larger index that share an item of the prefix.
      const ItemSet& items_i = (*sets)[i].items;
      const size_t o_min =
          use_f1 ? kernel::MinOverlapForF1(items_i.size(), band_low)
                 : kernel::MinOverlapForJaccard(items_i.size(), band_low);
      const size_t prefix =
          items_i.size() >= o_min ? items_i.size() - o_min + 1 : 0;
      candidates.clear();
      for (size_t p = 0; p < prefix; ++p) {
        for (size_t j : index[items_i.items()[p]]) {
          if (j > i && !dead[j]) candidates.push_back(j);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      for (size_t j : candidates) {
        if (dead[i] || dead[j]) continue;
        auto& a = (*sets)[i];
        auto& b = (*sets)[j];
        const size_t inter = a.items.IntersectionSize(b.items);
        const double s =
            use_f1 ? F1FromSizes(a.items.size(), b.items.size(), inter)
                   : JaccardFromSizes(a.items.size(), b.items.size(), inter);
        if (s + 1e-12 >= band_low) {
          if (b.weight > a.weight) a.label = b.label;
          a.items = a.items.Union(b.items);
          a.weight += b.weight;
          dead[j] = 1;
          merged_any = true;
        }
      }
    }
    std::vector<CandidateSet> kept;
    kept.reserve(sets->size());
    for (size_t i = 0; i < sets->size(); ++i) {
      if (!dead[i]) kept.push_back(std::move((*sets)[i]));
    }
    *sets = std::move(kept);
    if (!merged_any) break;
  }
}

}  // namespace reference
}  // namespace oct

#endif  // OCT_TESTS_REFERENCE_PREPROCESS_H_
