// Tests for the data substrate: catalog generation, the search engine,
// query logs, and the preprocessing pipeline of Section 5.1.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "baselines/existing_tree.h"
#include "data/catalog.h"
#include "data/datasets.h"
#include "data/preprocess.h"
#include "data/query_log.h"
#include "data/search_engine.h"
#include "obs/metrics.h"
#include "reference_preprocess.h"
#include "util/rng.h"

namespace oct {
namespace data {
namespace {

TEST(Catalog, GenerationIsDeterministic) {
  const Catalog c1 = Catalog::Generate(FashionSchema(), 200, 5);
  const Catalog c2 = Catalog::Generate(FashionSchema(), 200, 5);
  for (ItemId item = 0; item < 200; ++item) {
    for (size_t a = 0; a < c1.num_attributes(); ++a) {
      EXPECT_EQ(c1.value(item, a), c2.value(item, a));
    }
  }
}

TEST(Catalog, ValuesWithinVocabulary) {
  const Catalog c = Catalog::Generate(ElectronicsSchema(), 500, 9);
  for (ItemId item = 0; item < 500; ++item) {
    for (size_t a = 0; a < c.num_attributes(); ++a) {
      EXPECT_LT(c.value(item, a), c.schema().attributes[a].values.size());
    }
  }
}

TEST(Catalog, ZipfSkewsTypePopularity) {
  const Catalog c = Catalog::Generate(FashionSchema(), 5000, 11);
  std::vector<size_t> counts(c.schema().attributes[0].values.size(), 0);
  for (ItemId item = 0; item < 5000; ++item) ++counts[c.value(item, 0)];
  EXPECT_GT(counts[0], counts[counts.size() - 1]);
}

TEST(Catalog, TitleContainsTypeAndBrand) {
  const Catalog c = Catalog::Generate(FashionSchema(), 10, 3);
  const std::string title = c.Title(0);
  EXPECT_NE(title.find(c.ValueName(0, c.value(0, 0))), std::string::npos);
  EXPECT_NE(title.find(c.ValueName(1, c.value(0, 1))), std::string::npos);
}

TEST(Catalog, ItemsWithValueMatchesScan) {
  const Catalog c = Catalog::Generate(FashionSchema(), 300, 13);
  const ItemSet black = c.ItemsWithValue(2, 0);
  for (ItemId item = 0; item < 300; ++item) {
    EXPECT_EQ(black.Contains(item), c.value(item, 2) == 0);
  }
}

TEST(Catalog, SemanticEmbeddingOneHotStructure) {
  const Catalog c = Catalog::Generate(FashionSchema(), 50, 17);
  const auto emb = c.SemanticEmbedding(3);
  // Dimension = total vocabulary size.
  size_t dims = 0;
  for (const auto& a : c.schema().attributes) dims += a.values.size();
  EXPECT_EQ(emb.size(), dims);
  // The hot entries stand out above the noise.
  size_t hot = 0;
  for (float v : emb) {
    if (v > 0.5f) ++hot;
  }
  EXPECT_EQ(hot, c.num_attributes());
}

TEST(SearchEngine, FullMatchesScoreHigh) {
  const Catalog c = Catalog::Generate(FashionSchema(), 1000, 19);
  SearchOptions options;
  options.seed = 4;
  options.mislabel_per_query = 0.0;
  const SearchEngine engine(&c, options);
  Query q;
  q.conjuncts = {{0, 0}};  // type == value 0.
  const auto hits = engine.Search(q);
  ASSERT_FALSE(hits.empty());
  for (const auto& h : hits) {
    if (h.relevance >= 0.8) {
      EXPECT_EQ(c.value(h.item, 0), 0);  // High scores only on real matches.
    }
  }
  // Sorted by relevance descending.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].relevance, hits[i].relevance);
  }
}

TEST(SearchEngine, ResultSetThresholdTrimsTail) {
  const Catalog c = Catalog::Generate(FashionSchema(), 1000, 19);
  SearchOptions options;
  options.seed = 4;
  const SearchEngine engine(&c, options);
  Query q;
  q.conjuncts = {{0, 0}, {2, 0}};  // type 0 and color 0.
  const ItemSet strict = engine.ResultSet(q, 0.9);
  const ItemSet loose = engine.ResultSet(q, 0.5);
  EXPECT_TRUE(strict.IsSubsetOf(loose));
  EXPECT_LT(strict.size(), loose.size());  // Near-miss tail exists.
}

TEST(SearchEngine, DeterministicPerQuery) {
  const Catalog c = Catalog::Generate(FashionSchema(), 500, 21);
  SearchOptions options;
  options.seed = 8;
  const SearchEngine engine(&c, options);
  Query q;
  q.conjuncts = {{1, 0}};
  EXPECT_EQ(engine.ResultSet(q, 0.8), engine.ResultSet(q, 0.8));
}

TEST(SearchEngine, TopKTruncation) {
  const Catalog c = Catalog::Generate(FashionSchema(), 2000, 23);
  SearchOptions options;
  options.seed = 8;
  options.top_k = 25;
  const SearchEngine engine(&c, options);
  Query q;
  q.conjuncts = {{0, 0}};
  EXPECT_LE(engine.Search(q).size(), 25u);
}

// The R(q) oracle: ResultSet(q, t) is exactly the items Search(q) scores
// at or above t, on both schemas and every logged query, for thresholds on
// both sides of the default near-miss bound (0.614), top_k that truncates
// hard, by default, and not at all, and an option set whose near-miss bound
// (0.904) lies between the production thresholds. On the 40-item catalog
// injections often hit matched items, so an item must rank at its highest
// relevance for top_k to cut in the same place.
TEST(SearchEngine, ResultSetMatchesThresholdedSearch) {
  SearchOptions perturbed;
  perturbed.noise = 0.2;
  perturbed.partial_match_relevance = 0.7;
  perturbed.mislabel_per_query = 3.3;
  const double kThresholds[] = {0, 0.55, 0.613, 0.614, 0.615, 0.8, 0.9, 0.95};
  const std::pair<bool, size_t> kCatalogs[] = {
      {false, 2000}, {true, 2000}, {false, 40}};
  size_t truncated = 0;
  for (const auto& [electronics, num_items] : kCatalogs) {
    const Catalog catalog = Catalog::Generate(
        electronics ? ElectronicsSchema() : FashionSchema(), num_items, 37);
    QueryLogOptions lopt;
    lopt.num_queries = 120;
    lopt.seed = 11;
    const auto log = GenerateQueryLog(catalog, lopt);
    for (SearchOptions options : {SearchOptions{}, perturbed}) {
      for (const size_t top_k :
           {size_t{5}, SearchOptions{}.top_k, catalog.num_items() + 1}) {
        options.top_k = top_k;
        const SearchEngine engine(&catalog, options);
        for (const LoggedQuery& lq : log) {
          const auto hits = engine.Search(lq.query);
          if (hits.size() == top_k) ++truncated;
          for (const double t : kThresholds) {
            std::vector<ItemId> expected;
            for (const auto& h : hits) {
              if (h.relevance >= t) expected.push_back(h.item);
            }
            ASSERT_EQ(engine.ResultSet(lq.query, t),
                      ItemSet(std::move(expected)))
                << lq.query.Text(catalog) << " t=" << t << " top_k=" << top_k
                << " noise=" << options.noise;
          }
        }
      }
    }
  }
  EXPECT_GT(truncated, 0u);  // Some cases really did cut at top_k.
}

// An oracle for the match enumeration that does not go through the engine.
// With no noise, no injections and no truncation, full matches score in
// [0.926, 0.934) and near-misses in [0.546, 0.554), so Search splits into
// the two match classes, which a scan of the whole catalog must reproduce:
// items failing no conjunct, and (for two or more conjuncts) items failing
// exactly one. Besides the logged queries of both schemas this covers
// repeated attributes and queries whose shortest posting list is not the
// first conjunct.
TEST(SearchEngine, MatchClassesMatchCatalogScan) {
  size_t shortest_not_first = 0;
  for (const bool electronics : {false, true}) {
    const Catalog catalog = Catalog::Generate(
        electronics ? ElectronicsSchema() : FashionSchema(), 2000, 43);
    SearchOptions options;
    options.noise = 0.0;
    options.mislabel_per_query = 0.0;
    options.top_k = catalog.num_items() + 1;
    const SearchEngine engine(&catalog, options);
    QueryLogOptions lopt;
    lopt.num_queries = 120;
    lopt.seed = 17;
    std::vector<Query> queries;
    for (const LoggedQuery& lq : GenerateQueryLog(catalog, lopt)) {
      queries.push_back(lq.query);
    }
    queries.push_back(Query{{{1, 2}, {1, 3}}});
    queries.push_back(Query{{{1, 2}, {1, 2}}});
    queries.push_back(Query{{{0, 0}, {1, 2}, {1, 2}}});
    queries.push_back(Query{{{1, 2}, {0, 0}, {1, 3}}});
    // The most common type first, then rarer values of other attributes.
    for (uint16_t attr = 1; attr < catalog.num_attributes(); ++attr) {
      const uint16_t rare = static_cast<uint16_t>(
          catalog.schema().attributes[attr].values.size() - 1);
      queries.push_back(Query{{{0, 0}, {attr, rare}}});
      queries.push_back(Query{{{0, 0}, {attr, rare}, {2, 0}}});
    }
    for (const Query& q : queries) {
      std::vector<size_t> list_size(q.conjuncts.size(), 0);
      std::vector<ItemId> full;
      std::vector<ItemId> near;
      for (ItemId item = 0; item < catalog.num_items(); ++item) {
        size_t failed = 0;
        for (size_t i = 0; i < q.conjuncts.size(); ++i) {
          const auto& [attr, value] = q.conjuncts[i];
          if (catalog.value(item, attr) == value) {
            ++list_size[i];
          } else {
            ++failed;
          }
        }
        if (failed == 0) full.push_back(item);
        if (failed == 1 && q.conjuncts.size() >= 2) near.push_back(item);
      }
      if (std::min_element(list_size.begin(), list_size.end()) !=
          list_size.begin()) {
        ++shortest_not_first;
      }
      std::vector<ItemId> high;
      std::vector<ItemId> mid;
      for (const auto& h : engine.Search(q)) {
        if (h.relevance >= 0.9) {
          high.push_back(h.item);
        } else if (h.relevance >= 0.5 && h.relevance < 0.6) {
          mid.push_back(h.item);
        } else {
          ADD_FAILURE() << q.Text(catalog) << ": relevance " << h.relevance;
        }
      }
      std::sort(high.begin(), high.end());
      std::sort(mid.begin(), mid.end());
      EXPECT_EQ(high, full) << q.Text(catalog);
      EXPECT_EQ(mid, near) << q.Text(catalog);
      EXPECT_EQ(engine.ResultSet(q, 0.9), ItemSet(full)) << q.Text(catalog);
      std::vector<ItemId> both = full;
      both.insert(both.end(), near.begin(), near.end());
      EXPECT_EQ(engine.ResultSet(q, 0.5), ItemSet(std::move(both)))
          << q.Text(catalog);
    }
  }
  EXPECT_GT(shortest_not_first, 10u);
}

/// FNV-1a over the eight bytes of `word`.
uint64_t DigestAdd(uint64_t digest, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xFF;
    digest *= 0x100000001B3ULL;
  }
  return digest;
}

// Pinned R(q) and Search output over fixed catalogs and logs, so a change
// to how result sets are computed must reproduce them bit for bit.
TEST(SearchEngine, ResultSetsMatchPinnedDigests) {
  struct Pinned {
    bool electronics;
    uint64_t search;  // Ranked item order of every Search.
    uint64_t at_08;   // Every ResultSet at 0.8.
    uint64_t at_09;   // Every ResultSet at 0.9.
  };
  const Pinned kPinned[] = {
      {false, 0xab0fca2bcb48469bULL, 0x993910bd56104160ULL,
       0x548d2c5c4ab4e6b0ULL},
      {true, 0xdbe9e9a1d4b3cb07ULL, 0xe99869ff160540f8ULL,
       0x48a93482568a614eULL},
  };
  for (const Pinned& pinned : kPinned) {
    const Catalog catalog = Catalog::Generate(
        pinned.electronics ? ElectronicsSchema() : FashionSchema(), 3000, 41);
    QueryLogOptions lopt;
    lopt.num_queries = 300;
    lopt.seed = 13;
    const auto log = GenerateQueryLog(catalog, lopt);
    SearchOptions options;
    options.seed = 5;
    const SearchEngine engine(&catalog, options);
    uint64_t search = 0xCBF29CE484222325ULL;
    uint64_t at_08 = search;
    uint64_t at_09 = search;
    for (const LoggedQuery& lq : log) {
      const auto hits = engine.Search(lq.query);
      search = DigestAdd(search, hits.size());
      for (const auto& h : hits) search = DigestAdd(search, h.item);
      for (auto [threshold, digest] :
           {std::pair{0.8, &at_08}, std::pair{0.9, &at_09}}) {
        const ItemSet result = engine.ResultSet(lq.query, threshold);
        *digest = DigestAdd(*digest, result.size());
        for (ItemId item : result) *digest = DigestAdd(*digest, item);
      }
    }
    EXPECT_EQ(search, pinned.search) << std::hex << "0x" << search;
    EXPECT_EQ(at_08, pinned.at_08) << std::hex << "0x" << at_08;
    EXPECT_EQ(at_09, pinned.at_09) << std::hex << "0x" << at_09;
  }
}

TEST(QueryText, OrdersTypeLast) {
  const Catalog c = Catalog::Generate(FashionSchema(), 10, 3);
  Query q;
  q.conjuncts = {{0, 0}, {2, 0}};  // shirt + black.
  EXPECT_EQ(q.Text(c), "black shirt");
}

TEST(QueryLog, GeneratesDistinctQueriesWithZipfWeights) {
  const Catalog c = Catalog::Generate(FashionSchema(), 500, 25);
  QueryLogOptions options;
  options.num_queries = 120;
  options.seed = 5;
  const auto log = GenerateQueryLog(c, options);
  EXPECT_EQ(log.size(), 120u);
  // Distinctness.
  std::set<uint64_t> keys;
  for (const auto& lq : log) keys.insert(lq.query.Key());
  EXPECT_EQ(keys.size(), log.size());
  // Popularity skew: the first queries are far more frequent.
  EXPECT_GT(log[0].AverageDaily(), log[100].AverageDaily());
  // 90 days of counts.
  EXPECT_EQ(log[0].daily_counts.size(), 90u);
}

TEST(QueryLog, TrendQueriesSpikeAtTheEnd) {
  const Catalog c = Catalog::Generate(ElectronicsSchema(), 500, 27);
  QueryLogOptions options;
  options.num_queries = 200;
  options.trend_fraction = 0.5;
  options.trend_days = 10;
  options.seed = 6;
  const auto log = GenerateQueryLog(c, options);
  size_t trends = 0;
  for (const auto& lq : log) {
    if (lq.daily_counts[0] == 0 && lq.daily_counts.back() > 0) ++trends;
  }
  EXPECT_GT(trends, 40u);  // ~half the queries are trends.
}

TEST(Preprocess, FrequencyFilterDropsRareQueries) {
  const Catalog c = Catalog::Generate(FashionSchema(), 800, 29);
  const SearchEngine engine(&c, {});
  QueryLogOptions lopt;
  lopt.num_queries = 150;
  lopt.seed = 7;
  const auto log = GenerateQueryLog(c, lopt);
  const CategoryTree et = baselines::BuildExistingTree(c);
  PreprocessOptions popt;
  popt.min_daily_count = 5;
  PreprocessStats stats;
  const OctInput input =
      BuildOctInput(engine, log, et, Similarity(Variant::kJaccardThreshold, 0.8),
                    popt, &stats);
  EXPECT_EQ(stats.raw_queries, 150u);
  EXPECT_LT(stats.after_frequency_filter, stats.raw_queries);
  EXPECT_TRUE(input.Validate().ok());
}

TEST(Preprocess, MergeBandCombinesNearDuplicates) {
  std::vector<CandidateSet> sets;
  CandidateSet a, b, c;
  a.items = ItemSet({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  a.weight = 2.0;
  a.label = "heavy";
  b.items = ItemSet({0, 1, 2, 3, 4, 5, 6, 7, 8});  // J = 0.9 with a.
  b.weight = 1.0;
  b.label = "light";
  c.items = ItemSet({20, 21, 22});
  c.weight = 1.0;
  sets = {a, b, c};
  // Band at delta .6: [0.6 + 0.3, 1] = [0.9, 1] -> a,b merge; c stays.
  MergeSimilarSets(Similarity(Variant::kJaccardThreshold, 0.6), 3, &sets);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_DOUBLE_EQ(sets[0].weight, 3.0);
  EXPECT_EQ(sets[0].label, "heavy");  // Heavier label survives.
  EXPECT_EQ(sets[0].items.size(), 10u);  // Union.
}

TEST(Preprocess, MergeBandLeavesModeratelySimilarAlone) {
  std::vector<CandidateSet> sets(2);
  sets[0].items = ItemSet({0, 1, 2, 3});
  sets[1].items = ItemSet({0, 1, 2, 9});  // J = 3/5 = 0.6 < band.
  MergeSimilarSets(Similarity(Variant::kJaccardThreshold, 0.6), 3, &sets);
  EXPECT_EQ(sets.size(), 2u);
}

/// Random merge inputs with planted near-duplicate chains. Each link of a
/// chain swaps or adds an item or two of the previous link, so links sit
/// near the band and some enter it only once their neighbours have merged,
/// which leaves work for later passes. Weights are small integers, so equal
/// weights exercise the label rule too. Items are even, so every other
/// item is in no set, as most catalog items are in no result set.
std::vector<CandidateSet> ChainedSets(uint64_t seed) {
  constexpr ItemId kUniverse = 300;
  Rng rng(seed);
  auto random_item = [&] {
    return 2 * static_cast<ItemId>(rng.NextBelow(kUniverse));
  };
  std::vector<CandidateSet> sets;
  for (size_t chain = 0; chain < 14; ++chain) {
    std::vector<ItemId> items;
    const size_t size = 6 + rng.NextBelow(50);
    while (items.size() < size) {
      const ItemId item = random_item();
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    const size_t links = 1 + rng.NextBelow(5);
    for (size_t link = 0; link < links; ++link) {
      CandidateSet cs;
      cs.items = ItemSet(items);
      cs.weight = static_cast<double>(1 + rng.NextBelow(4));
      cs.label = std::to_string(chain) + "." + std::to_string(link);
      sets.push_back(std::move(cs));
      const size_t edits = 1 + rng.NextBelow(2);
      for (size_t e = 0; e < edits; ++e) {
        const ItemId item = random_item();
        if (std::find(items.begin(), items.end(), item) != items.end()) {
          continue;
        }
        if (rng.NextBernoulli(0.5)) {
          items[rng.NextBelow(items.size())] = item;
        } else {
          items.push_back(item);
        }
      }
    }
  }
  rng.Shuffle(&sets);
  return sets;
}

// The CSR merge against the hash-map reference: identical sets in identical
// order, with identical items, weights and labels, for both band functions,
// both thresholds and one to three passes.
TEST(Preprocess, MergeMatchesReference) {
  size_t later_pass_merges = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    for (const Variant variant :
         {Variant::kJaccardThreshold, Variant::kF1Threshold}) {
      for (const double delta : {0.6, 0.8}) {
        const Similarity sim(variant, delta);
        std::vector<size_t> kept;
        for (size_t passes = 1; passes <= 3; ++passes) {
          std::vector<CandidateSet> expected = ChainedSets(seed);
          std::vector<CandidateSet> actual = expected;
          reference::MergeSimilarSets(sim, passes, &expected);
          MergeSimilarSets(sim, passes, &actual);
          ASSERT_EQ(actual.size(), expected.size())
              << "seed " << seed << " passes " << passes;
          for (size_t i = 0; i < actual.size(); ++i) {
            EXPECT_EQ(actual[i].items, expected[i].items);
            EXPECT_EQ(std::bit_cast<uint64_t>(actual[i].weight),
                      std::bit_cast<uint64_t>(expected[i].weight));
            EXPECT_EQ(actual[i].label, expected[i].label);
          }
          kept.push_back(actual.size());
        }
        if (kept.back() < kept.front()) ++later_pass_merges;
      }
    }
  }
  EXPECT_GT(later_pass_merges, 0u);  // Some inputs merged after pass one.
}

// Each BuildOctInput records one sample per preprocessing phase it runs.
TEST(Preprocess, RecordsOneSamplePerPhase) {
  const Catalog c = Catalog::Generate(FashionSchema(), 800, 29);
  const SearchEngine engine(&c, {});
  QueryLogOptions lopt;
  lopt.num_queries = 150;
  lopt.seed = 7;
  const auto log = GenerateQueryLog(c, lopt);
  const CategoryTree et = baselines::BuildExistingTree(c);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  obs::Histogram* result_sets_us =
      obs::MetricsRegistry::Default()->GetHistogram("data.result_sets_us");
  obs::Histogram* merge_us =
      obs::MetricsRegistry::Default()->GetHistogram("data.merge_us");
  const uint64_t result_sets_before = result_sets_us->Count();
  const uint64_t merge_before = merge_us->Count();
  PreprocessOptions popt;
  BuildOctInput(engine, log, et, sim, popt);
  EXPECT_EQ(result_sets_us->Count(), result_sets_before + 1);
  EXPECT_EQ(merge_us->Count(), merge_before + 1);
  popt.merge_similar = false;
  BuildOctInput(engine, log, et, sim, popt);
  EXPECT_EQ(result_sets_us->Count(), result_sets_before + 2);
  EXPECT_EQ(merge_us->Count(), merge_before + 1);
}

TEST(Preprocess, RelevanceThresholdDefaults) {
  EXPECT_DOUBLE_EQ(DefaultRelevanceThreshold(Variant::kJaccardThreshold), 0.8);
  EXPECT_DOUBLE_EQ(DefaultRelevanceThreshold(Variant::kF1Cutoff), 0.8);
  EXPECT_DOUBLE_EQ(DefaultRelevanceThreshold(Variant::kPerfectRecall), 0.9);
  EXPECT_DOUBLE_EQ(DefaultRelevanceThreshold(Variant::kExact), 0.9);
}

TEST(Datasets, RegistryCoversAllFive) {
  for (char name : {'A', 'B', 'C', 'D', 'E'}) {
    const DatasetSpec spec = SpecFor(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_GT(spec.num_items, 0u);
  }
  EXPECT_TRUE(SpecFor('E').uniform_weights);
  EXPECT_TRUE(SpecFor('D').electronics);
  EXPECT_FALSE(SpecFor('A').electronics);
}

TEST(Datasets, SmallScaleDatasetIsCoherent) {
  const Dataset ds =
      MakeDataset('A', Similarity(Variant::kJaccardThreshold, 0.8), 0.05);
  EXPECT_GT(ds.input.num_sets(), 10u);
  EXPECT_TRUE(ds.input.Validate().ok());
  EXPECT_EQ(ds.input.universe_size(), ds.catalog->num_items());
  // E has uniform unit weights; merging near-duplicates sums them, so each
  // weight is a positive integer (count of merged queries).
  const Dataset e =
      MakeDataset('E', Similarity(Variant::kJaccardThreshold, 0.8), 0.05);
  for (const auto& s : e.input.sets()) {
    EXPECT_GE(s.weight, 1.0);
    EXPECT_DOUBLE_EQ(s.weight, std::round(s.weight));
  }
}

// Pinned OctInputs of every registry dataset at 8% scale: the set count,
// then per set its size, items and weight bits, then its label's bytes. A
// change to preprocessing must reproduce them bit for bit.
TEST(Datasets, InputsMatchPinnedDigests) {
  const std::pair<char, uint64_t> kPinned[] = {
      {'A', 0x7fa9fe031a503d60ULL}, {'B', 0x308921837d254bcfULL},
      {'C', 0xdcb57178476139bfULL}, {'D', 0x8a18170d5045de6bULL},
      {'E', 0x1677a476fdbd1738ULL},
  };
  for (const auto& [name, pinned] : kPinned) {
    const Dataset ds =
        MakeDataset(name, Similarity(Variant::kJaccardThreshold, 0.8), 0.08);
    uint64_t digest = 0xCBF29CE484222325ULL;
    digest = DigestAdd(digest, ds.input.num_sets());
    for (const CandidateSet& cs : ds.input.sets()) {
      digest = DigestAdd(digest, cs.items.size());
      for (ItemId item : cs.items) digest = DigestAdd(digest, item);
      digest = DigestAdd(digest, std::bit_cast<uint64_t>(cs.weight));
      for (const char ch : cs.label) {
        digest ^= static_cast<unsigned char>(ch);
        digest *= 0x100000001B3ULL;
      }
    }
    EXPECT_EQ(digest, pinned) << name << std::hex << " 0x" << digest;
  }
}

}  // namespace
}  // namespace data
}  // namespace oct
