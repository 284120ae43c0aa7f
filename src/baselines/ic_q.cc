#include "baselines/ic_q.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <unordered_map>

#include "baselines/cluster_util.h"
#include "cct/agglomerative.h"
#include "core/tree_ops.h"
#include "kernel/item_set_index.h"
#include "util/logging.h"

namespace oct {
namespace baselines {

namespace {

size_t SignatureIntersection(const std::vector<SetId>& a,
                             const std::vector<SetId>& b) {
  size_t count = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

CategoryTree BuildIcQTree(const OctInput& input, const IcQOptions& options) {
  // Membership signature per item; items in no set go straight to misc.
  const kernel::ItemSetIndex index = kernel::ItemSetIndex::Build(input);
  std::map<std::vector<SetId>, std::vector<ItemId>> by_signature;
  for (ItemId item = 0; item < input.universe_size(); ++item) {
    const std::span<const SetId> sets = index.SetsOf(item);
    if (sets.empty()) continue;
    by_signature[{sets.begin(), sets.end()}].push_back(item);
  }

  std::vector<std::vector<SetId>> signatures;
  std::vector<std::vector<ItemId>> groups;
  signatures.reserve(by_signature.size());
  for (auto& [sig, items] : by_signature) {
    signatures.push_back(sig);
    groups.push_back(std::move(items));
  }

  // Cap the quadratic stage: keep the most populous signatures as centers
  // and fold every rare signature into the center with the largest overlap.
  if (groups.size() > options.max_clusters) {
    std::vector<size_t> order(groups.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (groups[a].size() != groups[b].size()) {
        return groups[a].size() > groups[b].size();
      }
      return a < b;
    });
    std::vector<std::vector<SetId>> center_sigs;
    std::vector<std::vector<ItemId>> center_groups;
    std::unordered_map<SetId, std::vector<size_t>> centers_of_set;
    for (size_t rank = 0; rank < options.max_clusters; ++rank) {
      const size_t i = order[rank];
      for (SetId s : signatures[i]) {
        centers_of_set[s].push_back(center_sigs.size());
      }
      center_sigs.push_back(std::move(signatures[i]));
      center_groups.push_back(std::move(groups[i]));
    }
    for (size_t rank = options.max_clusters; rank < order.size(); ++rank) {
      const size_t i = order[rank];
      // Best center by overlap among centers sharing a set.
      size_t best_center = 0;
      double best_score = -1.0;
      for (SetId s : signatures[i]) {
        auto it = centers_of_set.find(s);
        if (it == centers_of_set.end()) continue;
        for (size_t c : it->second) {
          const size_t inter = SignatureIntersection(signatures[i],
                                                     center_sigs[c]);
          const double jacc =
              static_cast<double>(inter) /
              static_cast<double>(signatures[i].size() +
                                  center_sigs[c].size() - inter);
          if (jacc > best_score) {
            best_score = jacc;
            best_center = c;
          }
        }
      }
      auto& dst = center_groups[best_center];
      dst.insert(dst.end(), groups[i].begin(), groups[i].end());
    }
    signatures = std::move(center_sigs);
    groups = std::move(center_groups);
  }

  std::vector<std::string> labels(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    labels[g] = "cluster" + std::to_string(g);
  }

  // Euclidean distance over binary membership vectors:
  // sqrt(|A| + |B| - 2 |A ∩ B|).
  auto distance = [&](size_t a, size_t b) {
    const size_t inter = SignatureIntersection(signatures[a], signatures[b]);
    return std::sqrt(static_cast<double>(signatures[a].size() +
                                         signatures[b].size() - 2 * inter));
  };
  const cct::Dendrogram dendro =
      cct::AgglomerativeCluster(groups.size(), distance);
  CategoryTree tree = TreeFromItemClusters(dendro, groups, labels);
  AddMiscCategory(input, &tree);
  return tree;
}

}  // namespace baselines
}  // namespace oct
