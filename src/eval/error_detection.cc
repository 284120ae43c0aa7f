#include "eval/error_detection.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/tree_ops.h"
#include "util/rng.h"

namespace oct {
namespace eval {

namespace {

double EuclideanDistance(const std::vector<float>& a,
                         const std::vector<float>& b) {
  double sq = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sq += d * d;
  }
  return std::sqrt(sq);
}

}  // namespace

std::vector<SuspiciousCategory> DetectIncoherentCategories(
    const data::Catalog& catalog, const CategoryTree& tree,
    const IncoherenceOptions& options) {
  std::vector<SuspiciousCategory> flagged;
  Rng rng(options.seed);
  const auto item_sets = tree.ComputeItemSets();
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.IsAlive(id) || id == tree.root() || !tree.IsLeaf(id)) continue;
    if (tree.node(id).label == kMiscLabel) continue;
    const ItemSet& items = item_sets[id];
    if (items.size() < options.min_items) continue;
    std::vector<ItemId> sample(items.begin(), items.end());
    if (sample.size() > options.max_items) {
      rng.Shuffle(&sample);
      sample.resize(options.max_items);
    }
    // Centroid of the sampled embeddings.
    std::vector<std::vector<float>> embeddings;
    embeddings.reserve(sample.size());
    for (ItemId item : sample) {
      embeddings.push_back(catalog.SemanticEmbedding(item));
    }
    std::vector<float> centroid(embeddings[0].size(), 0.0f);
    for (const auto& e : embeddings) {
      for (size_t d = 0; d < e.size(); ++d) centroid[d] += e[d];
    }
    for (auto& c : centroid) c /= static_cast<float>(embeddings.size());
    // Mean distance and outliers.
    std::vector<double> distances(sample.size());
    double mean = 0.0;
    for (size_t i = 0; i < sample.size(); ++i) {
      distances[i] = EuclideanDistance(embeddings[i], centroid);
      mean += distances[i];
    }
    mean /= static_cast<double>(sample.size());
    if (mean <= options.mean_distance_threshold) continue;
    SuspiciousCategory sc;
    sc.node = id;
    sc.mean_distance = mean;
    for (size_t i = 0; i < sample.size(); ++i) {
      if (distances[i] > options.outlier_factor * mean) {
        sc.outliers.push_back(sample[i]);
      }
    }
    flagged.push_back(std::move(sc));
  }
  std::sort(flagged.begin(), flagged.end(),
            [](const SuspiciousCategory& a, const SuspiciousCategory& b) {
              return a.mean_distance > b.mean_distance;
            });
  return flagged;
}

std::vector<SetId> UncoveredSets(const TreeScore& score) {
  std::vector<SetId> out;
  for (SetId q = 0; q < score.per_set.size(); ++q) {
    if (!score.per_set[q].covered) out.push_back(q);
  }
  return out;
}

ItemSet UncoveredItems(const OctInput& input, const CategoryTree& tree,
                       const TreeScore& score) {
  // Union of the item sets of all covering categories.
  std::unordered_set<NodeId> covering;
  for (const SetCover& cover : score.per_set) {
    if (cover.covered && cover.best_node != kInvalidNode) {
      covering.insert(cover.best_node);
    }
  }
  ItemSet in_covering;
  for (NodeId node : covering) {
    in_covering.UnionInPlace(tree.ItemSetOf(node));
  }
  // Items in some input set but in no covering category.
  ItemSet in_sets = input.AllItems();
  return in_sets.Difference(in_covering);
}

}  // namespace eval
}  // namespace oct
