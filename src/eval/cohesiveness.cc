#include "eval/cohesiveness.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tree_ops.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace oct {
namespace eval {

namespace {

using TfIdfVector = std::vector<std::pair<uint32_t, float>>;  // sorted by id

double Cosine(const TfIdfVector& a, const TfIdfVector& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  size_t i = 0, j = 0;
  for (const auto& [id, v] : a) {
    (void)id;
    na += static_cast<double>(v) * v;
  }
  for (const auto& [id, v] : b) {
    (void)id;
    nb += static_cast<double>(v) * v;
  }
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      dot += static_cast<double>(a[i].second) * b[j].second;
      ++i;
      ++j;
    }
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace

CohesivenessResult MeasureCohesiveness(const data::Catalog& catalog,
                                       const CategoryTree& tree,
                                       const CohesivenessOptions& options) {
  // Token vocabulary and document frequencies over the whole catalog.
  std::unordered_map<std::string, uint32_t> vocab;
  std::vector<uint32_t> doc_freq;
  std::vector<std::vector<uint32_t>> tokens_of_item(catalog.num_items());
  for (ItemId item = 0; item < catalog.num_items(); ++item) {
    std::vector<uint32_t> ids;
    for (const std::string& tok : Tokenize(catalog.Title(item))) {
      auto [it, inserted] =
          vocab.try_emplace(tok, static_cast<uint32_t>(vocab.size()));
      if (inserted) doc_freq.push_back(0);
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (uint32_t id : ids) ++doc_freq[id];
    tokens_of_item[item] = std::move(ids);
  }
  const double n_docs = static_cast<double>(catalog.num_items());
  std::vector<float> idf(doc_freq.size());
  for (size_t t = 0; t < doc_freq.size(); ++t) {
    idf[t] = static_cast<float>(
        std::log(n_docs / (1.0 + static_cast<double>(doc_freq[t]))));
  }
  auto vector_of = [&](ItemId item) {
    TfIdfVector v;
    v.reserve(tokens_of_item[item].size());
    // Titles have unique tokens, so tf is 1; weight = idf.
    for (uint32_t id : tokens_of_item[item]) v.push_back({id, idf[id]});
    return v;
  };

  CohesivenessResult result;
  Rng rng(options.seed);
  const auto item_sets = tree.ComputeItemSets();
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.IsAlive(id) || id == tree.root() || !tree.IsLeaf(id)) continue;
    if (options.skip_misc && tree.node(id).label == kMiscLabel) continue;
    const ItemSet& items = item_sets[id];
    if (items.size() < options.min_items) continue;
    // Sample up to max_items_per_category items.
    std::vector<ItemId> sample(items.begin(), items.end());
    if (sample.size() > options.max_items_per_category) {
      rng.Shuffle(&sample);
      sample.resize(options.max_items_per_category);
    }
    std::vector<TfIdfVector> vectors;
    vectors.reserve(sample.size());
    for (ItemId item : sample) vectors.push_back(vector_of(item));
    double total = 0.0;
    size_t pairs = 0;
    for (size_t i = 0; i < vectors.size(); ++i) {
      for (size_t j = i + 1; j < vectors.size(); ++j) {
        total += Cosine(vectors[i], vectors[j]);
        ++pairs;
      }
    }
    if (pairs == 0) continue;
    const double avg = total / static_cast<double>(pairs);
    result.uniform_average += avg;
    weighted_sum += avg * static_cast<double>(items.size());
    weight_total += static_cast<double>(items.size());
    ++result.categories_evaluated;
  }
  if (result.categories_evaluated > 0) {
    result.uniform_average /=
        static_cast<double>(result.categories_evaluated);
  }
  if (weight_total > 0.0) {
    result.weighted_average = weighted_sum / weight_total;
  }
  return result;
}

}  // namespace eval
}  // namespace oct
