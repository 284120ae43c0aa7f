// Tests for the data substrate: catalog generation, the search engine,
// query logs, and the preprocessing pipeline of Section 5.1.

#include <gtest/gtest.h>

#include "baselines/existing_tree.h"
#include <cmath>

#include "data/catalog.h"
#include "data/datasets.h"
#include "data/preprocess.h"
#include "data/query_log.h"
#include "data/search_engine.h"

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

}  // namespace
}  // namespace data
}  // namespace oct
