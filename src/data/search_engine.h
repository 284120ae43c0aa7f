// Search-engine substrate: evaluates conjunctive attribute queries over a
// catalog, returning relevance-scored hits like the platform engine
// (Elasticsearch) of Section 5.1. Relevance is high for full matches, lower
// for near-misses, with calibrated noise and occasional mislabeled items
// (the "Nike Blazer" effect) so that thresholding at 0.8 / 0.9 reproduces
// the paper's result-set composition, noise tail included.

#ifndef OCT_DATA_SEARCH_ENGINE_H_
#define OCT_DATA_SEARCH_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/item_set.h"
#include "data/catalog.h"
#include "util/status.h"

namespace oct {
namespace data {

/// A conjunctive search query: attribute == value for every conjunct.
struct Query {
  std::vector<std::pair<uint16_t, uint16_t>> conjuncts;  // (attr, value)
  /// Paraphrase index: 0 for the canonical phrasing; higher values denote
  /// differently-worded queries with the same intent ("black nike shirt" vs
  /// "nike shirt black"). Phrasing perturbs the engine's relevance noise
  /// (different tokenization), so paraphrases get near- but not fully
  /// identical result sets — the near-duplicates the preprocessing merge
  /// stage collapses.
  uint16_t phrasing = 0;

  /// Stable text rendering, e.g. "black nike shirt".
  std::string Text(const Catalog& catalog) const;

  /// Stable 64-bit key for dedup and per-query determinism (phrasing-
  /// sensitive).
  uint64_t Key() const;

  /// Key of the underlying intent (phrasing-insensitive): paraphrases of
  /// one query share it. Drives the bulk of the relevance noise so
  /// paraphrases rank items almost identically.
  uint64_t BaseKey() const;
};

/// Relevance model. An item's relevance is its match class's mean plus
/// intent noise in [-|noise|, |noise|) plus phrasing noise in
/// [-0.004, 0.004), clamped to [0, 1]; mislabeled injections score in
/// [0.82, 0.97). So a near-miss never scores above
/// partial_match_relevance + |noise| + 0.004 (0.614 with the defaults),
/// below both thresholds of Section 5.1.
struct SearchOptions {
  /// Mean relevance of items matching every conjunct.
  double full_match_relevance = 0.93;
  /// Mean relevance of items matching all conjuncts but one.
  double partial_match_relevance = 0.55;
  /// Relevance noise amplitude (intent noise, shared by paraphrases).
  double noise = 0.06;
  /// Expected number of unrelated high-relevance items injected per query
  /// (search-engine misclassification surviving the threshold).
  double mislabel_per_query = 0.8;
  /// Maximum hits returned (top-k truncation, as in the public datasets).
  size_t top_k = 500;
  uint64_t seed = 1;
};

/// Deterministic relevance-scored retrieval over a catalog.
class SearchEngine {
 public:
  struct Hit {
    ItemId item;
    double relevance;
  };

  SearchEngine(const Catalog* catalog, SearchOptions options);

  /// OK when the query is well-formed against this catalog: at least one
  /// conjunct, every (attr, value) within schema bounds.
  Status ValidateQuery(const Query& query) const;

  /// Every hit (one per item, at its highest relevance) sorted by
  /// descending relevance, ties by ascending item, truncated to top_k.
  /// The reference ResultSet is checked against.
  /// Precondition: ValidateQuery(query).ok() — aborts otherwise.
  std::vector<Hit> Search(const Query& query) const;

  /// R(q): the items of Search(query) with relevance >= threshold
  /// (Section 5.1 "Computing result sets"; 0.8 for Jaccard/F1 runs, 0.9
  /// for Perfect-Recall/Exact), without ranking hits below the threshold.
  /// When the threshold exceeds the near-miss bound (see SearchOptions)
  /// the near-miss tail is not enumerated at all. The set is still exact:
  /// (1) no near-miss could reach it; (2) top_k ranks by relevance first,
  /// so every hit at or above the threshold outranks every hit below it
  /// and dropping the latter never changes which survive top_k; (3) an
  /// item's highest relevance clears the threshold exactly when one of its
  /// hits does.
  /// Precondition: ValidateQuery(query).ok() — aborts otherwise; callers
  /// with untrusted queries use TryResultSet.
  ItemSet ResultSet(const Query& query, double relevance_threshold) const;

  /// Validating variant: InvalidArgument instead of aborting on a
  /// malformed query (replayed logs, external callers).
  Result<ItemSet> TryResultSet(const Query& query,
                               double relevance_threshold) const;

  const Catalog& catalog() const { return *catalog_; }
  const SearchOptions& options() const { return options_; }

 private:
  /// Appends the hits with relevance >= floor: full matches (in ascending
  /// item order, without duplicates), then near-misses and mislabeled
  /// injections, duplicates included. Returns the number of full-match
  /// hits appended. Each enumeration scans only its shortest posting list
  /// and tests the other conjuncts with Catalog::value.
  size_t CollectHits(const Query& query, double floor,
                     std::vector<Hit>* hits) const;

  const Catalog* catalog_;
  SearchOptions options_;
  /// postings_[attr][value] = sorted items having that value.
  std::vector<std::vector<std::vector<ItemId>>> postings_;
};

}  // namespace data
}  // namespace oct

#endif  // OCT_DATA_SEARCH_ENGINE_H_
