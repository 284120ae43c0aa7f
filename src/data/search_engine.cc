#include "data/search_engine.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace oct {
namespace data {

namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

/// Deterministic uniform double in [0,1) from a hash.
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Amplitude of the phrasing-dependent relevance noise. The relevance
/// formula and the near-miss bound both read it, so they cannot drift apart.
constexpr double kPhrasingNoise = 0.004;

bool ItemThenRelevance(const SearchEngine::Hit& a, const SearchEngine::Hit& b) {
  if (a.item != b.item) return a.item < b.item;
  return a.relevance > b.relevance;
}

bool SameItem(const SearchEngine::Hit& a, const SearchEngine::Hit& b) {
  return a.item == b.item;
}

/// Rank order: relevance descending, ties by item ascending.
bool RanksAbove(const SearchEngine::Hit& a, const SearchEngine::Hit& b) {
  if (a.relevance != b.relevance) return a.relevance > b.relevance;
  return a.item < b.item;
}

}  // namespace

std::string Query::Text(const Catalog& catalog) const {
  if (phrasing > 0) {
    // Paraphrases render with the conjuncts in rotated order.
    std::string rotated;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      const auto& [attr, value] =
          conjuncts[(i + phrasing) % conjuncts.size()];
      if (!rotated.empty()) rotated += " ";
      rotated += catalog.ValueName(attr, value);
    }
    return rotated;
  }
  // Non-type conjuncts first, type last: "black nike shirt".
  std::string text;
  std::string type_part;
  for (const auto& [attr, value] : conjuncts) {
    const std::string& name = catalog.ValueName(attr, value);
    if (attr == 0) {
      type_part = name;
    } else {
      if (!text.empty()) text += " ";
      text += name;
    }
  }
  if (!type_part.empty()) {
    if (!text.empty()) text += " ";
    text += type_part;
  }
  return text;
}

uint64_t Query::Key() const { return Mix(BaseKey(), phrasing); }

uint64_t Query::BaseKey() const {
  uint64_t key = 0x8BADF00Du;
  for (const auto& [attr, value] : conjuncts) {
    key = Mix(key, (static_cast<uint64_t>(attr) << 32) | value);
  }
  return key;
}

SearchEngine::SearchEngine(const Catalog* catalog, SearchOptions options)
    : catalog_(catalog), options_(options) {
  const size_t num_attrs = catalog->num_attributes();
  postings_.resize(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    postings_[a].resize(catalog->schema().attributes[a].values.size());
  }
  for (ItemId item = 0; item < catalog->num_items(); ++item) {
    for (size_t a = 0; a < num_attrs; ++a) {
      postings_[a][catalog->value(item, a)].push_back(item);
    }
  }
}

Status SearchEngine::ValidateQuery(const Query& query) const {
  if (query.conjuncts.empty()) {
    return Status::InvalidArgument("query has no conjuncts");
  }
  for (const auto& [attr, value] : query.conjuncts) {
    if (attr >= postings_.size()) {
      return Status::InvalidArgument(
          "query attribute " + std::to_string(attr) +
          " out of range (catalog has " + std::to_string(postings_.size()) +
          " attributes)");
    }
    if (value >= postings_[attr].size()) {
      return Status::InvalidArgument(
          "query value " + std::to_string(value) + " out of range for "
          "attribute " + std::to_string(attr) + " (has " +
          std::to_string(postings_[attr].size()) + " values)");
    }
  }
  return Status::OK();
}

size_t SearchEngine::CollectHits(const Query& query, double floor,
                                 std::vector<Hit>* hits) const {
  const Status valid = ValidateQuery(query);
  OCT_CHECK(valid.ok()) << valid.ToString();
  const uint64_t qkey = Mix(options_.seed, query.Key());
  const uint64_t base_key = Mix(options_.seed, query.BaseKey());
  auto relevance_of = [&](ItemId item, double base) {
    // The bulk of the noise is shared across paraphrases of one intent;
    // phrasing only perturbs mildly (different tokenization).
    const double u = HashToUnit(Mix(base_key, item)) * 2.0 - 1.0;  // [-1, 1)
    const double p = HashToUnit(Mix(qkey, item)) * 2.0 - 1.0;
    double r = base + u * options_.noise + p * kPhrasingNoise;
    return std::clamp(r, 0.0, 1.0);
  };

  // Calls visit(item), in ascending item order, for every item that matches
  // each conjunct except conjuncts[skip] (none skipped when skip is out of
  // range). Only the shortest of those posting lists is read; the other
  // conjuncts are tested against the catalog's value matrix, so a query
  // costs the length of one list instead of the sum of all of them.
  const auto& conjuncts = query.conjuncts;
  auto for_each_match = [&](size_t skip, auto&& visit) {
    const std::vector<ItemId>* scan = nullptr;
    size_t scanned = skip;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i == skip) continue;
      const auto& list = postings_[conjuncts[i].first][conjuncts[i].second];
      if (scan == nullptr || list.size() < scan->size()) {
        scan = &list;
        scanned = i;
      }
    }
    for (ItemId item : *scan) {
      bool match = true;
      for (size_t i = 0; match && i < conjuncts.size(); ++i) {
        if (i == skip || i == scanned) continue;
        const auto& [attr, value] = conjuncts[i];
        match = catalog_->value(item, attr) == value;
      }
      if (match) visit(item);
    }
  };

  // Full matches. Only a single conjunct answers with its whole list, so
  // only then is the length of the scan a useful reservation.
  if (conjuncts.size() == 1) {
    hits->reserve(postings_[conjuncts[0].first][conjuncts[0].second].size());
  }
  for_each_match(conjuncts.size(), [&](ItemId item) {
    const double r = relevance_of(item, options_.full_match_relevance);
    if (r >= floor) hits->push_back({item, r});
  });
  const size_t full_hits = hits->size();

  // Near-misses: items matching all conjuncts but one (multi-conjunct
  // queries only) — the low-relevance tail the preprocessing trims. None
  // scores above the bound, so a floor over it skips the whole tail.
  const double near_miss_bound =
      std::clamp(options_.partial_match_relevance + std::abs(options_.noise) +
                     kPhrasingNoise,
                 0.0, 1.0);
  if (conjuncts.size() >= 2 && near_miss_bound >= floor) {
    for (size_t skip = 0; skip < conjuncts.size(); ++skip) {
      const auto& [sattr, svalue] = conjuncts[skip];
      for_each_match(skip, [&](ItemId item) {
        if (catalog_->value(item, sattr) == svalue) return;  // Full match.
        const double r = relevance_of(item, options_.partial_match_relevance);
        if (r >= floor) hits->push_back({item, r});
      });
    }
  }

  // Mislabeled injections: a few unrelated items scored high enough to
  // survive thresholding (deterministic per query *intent* — the engine
  // misclassifies the product, not the phrasing). The stream is drawn in
  // full whatever the floor.
  {
    Rng rng(Mix(base_key, 0xBADCAB1Eu));
    const double expected = options_.mislabel_per_query;
    size_t count = static_cast<size_t>(expected);
    if (rng.NextDouble() < expected - static_cast<double>(count)) ++count;
    for (size_t i = 0; i < count && catalog_->num_items() > 0; ++i) {
      const ItemId item =
          static_cast<ItemId>(rng.NextBelow(catalog_->num_items()));
      const double r = 0.82 + 0.15 * rng.NextDouble();
      if (r >= floor) hits->push_back({item, r});
    }
  }
  return full_hits;
}

std::vector<SearchEngine::Hit> SearchEngine::Search(const Query& query) const {
  std::vector<Hit> hits;
  CollectHits(query, 0.0, &hits);
  // Dedup by item (keep max relevance), sort by relevance desc, truncate.
  std::sort(hits.begin(), hits.end(), ItemThenRelevance);
  hits.erase(std::unique(hits.begin(), hits.end(), SameItem), hits.end());
  std::sort(hits.begin(), hits.end(), RanksAbove);
  if (hits.size() > options_.top_k) hits.resize(options_.top_k);
  return hits;
}

ItemSet SearchEngine::ResultSet(const Query& query,
                                double relevance_threshold) const {
  std::vector<Hit> hits;
  const size_t full_hits = CollectHits(query, relevance_threshold, &hits);
  // Dedup, keeping each item's max relevance. The full-match run is
  // item-sorted and duplicate-free; only the tail is sorted, then merged.
  const auto tail = hits.begin() + full_hits;
  if (tail != hits.end()) {
    std::sort(tail, hits.end(), ItemThenRelevance);
    std::inplace_merge(hits.begin(), tail, hits.end(), ItemThenRelevance);
    hits.erase(std::unique(hits.begin(), hits.end(), SameItem), hits.end());
  }
  // Top-k by (relevance desc, item asc), as Search truncates.
  const bool truncated = hits.size() > options_.top_k;
  if (truncated) {
    std::nth_element(hits.begin(), hits.begin() + options_.top_k, hits.end(),
                     RanksAbove);
    hits.resize(options_.top_k);
  }
  std::vector<ItemId> items;
  items.reserve(hits.size());
  for (const Hit& h : hits) items.push_back(h.item);
  if (truncated) std::sort(items.begin(), items.end());
  return ItemSet::FromSorted(std::move(items));
}

Result<ItemSet> SearchEngine::TryResultSet(const Query& query,
                                           double relevance_threshold) const {
  OCT_RETURN_NOT_OK(ValidateQuery(query));
  return ResultSet(query, relevance_threshold);
}

}  // namespace data
}  // namespace oct
