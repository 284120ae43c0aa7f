// Property / equivalence tests for oct::kernel: BitSet probes vs the
// merge-based ItemSet intersection, the ItemSetIndex item -> sets lists,
// the OverlapScratch pairwise scan vs brute force, the prefix-filter
// bounds, the condensed distance kernel vs the serial Embeddings::Distance
// oracle, the embeddings vs brute force, and end-to-end conflict / CCT
// equivalence with a prebuilt index vs a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "cct/cct.h"
#include "cct/embedding.h"
#include "core/serialization.h"
#include "ctcr/conflicts.h"
#include "data/datasets.h"
#include "kernel/bitset.h"
#include "kernel/item_set_index.h"
#include "kernel/pairwise.h"
#include "kernel/scratch.h"
#include "kernel/union_find.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace oct {
namespace kernel {
namespace {

ItemSet RandomSet(Rng* rng, size_t universe, size_t size) {
  std::vector<ItemId> items;
  items.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(static_cast<ItemId>(rng->NextBelow(universe)));
  }
  return ItemSet(std::move(items));
}

ItemSet FullSet(size_t universe) {
  std::vector<ItemId> items(universe);
  for (size_t i = 0; i < universe; ++i) items[i] = static_cast<ItemId>(i);
  return ItemSet::FromSorted(std::move(items));
}

/// Corpus hitting the adversarial shapes: empty, singleton (first/last
/// item), full universe, dense random, sparse random, a contiguous run,
/// and strided sets that straddle word boundaries.
std::vector<ItemSet> Corpus(size_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<ItemSet> sets;
  sets.push_back(ItemSet());
  sets.push_back(ItemSet({0}));
  sets.push_back(ItemSet({static_cast<ItemId>(universe - 1)}));
  sets.push_back(FullSet(universe));
  sets.push_back(RandomSet(&rng, universe, universe / 2 + 1));  // Dense.
  sets.push_back(RandomSet(&rng, universe, 3));                 // Sparse.
  {
    std::vector<ItemId> run;
    for (size_t i = universe / 3; i < universe / 3 + universe / 4 + 1; ++i) {
      run.push_back(static_cast<ItemId>(i));
    }
    sets.push_back(ItemSet(std::move(run)));
  }
  {
    std::vector<ItemId> strided;
    for (size_t i = 0; i < universe; i += 63) {
      strided.push_back(static_cast<ItemId>(i));
    }
    sets.push_back(ItemSet(std::move(strided)));
  }
  return sets;
}

OctInput RandomInput(size_t universe, size_t num_sets, size_t avg_size,
                     uint64_t seed) {
  Rng rng(seed);
  OctInput input(universe);
  for (size_t s = 0; s < num_sets; ++s) {
    ItemSet set =
        RandomSet(&rng, universe, avg_size / 2 + rng.NextBelow(avg_size));
    if (set.empty()) set = ItemSet({static_cast<ItemId>(s % universe)});
    input.Add(std::move(set), 0.5 + rng.NextDouble() * 4.0);
  }
  return input;
}

TEST(BitSet, ProbeCountMatchesMergeOnCorpus) {
  for (const size_t universe : {64u, 65u, 1000u}) {
    const std::vector<ItemSet> sets = Corpus(universe, 7 + universe);
    for (const ItemSet& a : sets) {
      BitSet ba(universe);
      ba.SetAll(a);
      for (const ItemSet& b : sets) {
        EXPECT_EQ(ba.IntersectionCount(b), a.IntersectionSize(b));
      }
    }
  }
}

TEST(BitSet, SetAllClearAllRestoreScratchInvariant) {
  const size_t universe = 300;
  const std::vector<ItemSet> sets = Corpus(universe, 11);
  BitSet scratch(universe);
  for (const ItemSet& a : sets) {
    scratch.SetAll(a);
    for (const ItemSet& b : sets) {
      EXPECT_EQ(scratch.IntersectionCount(b), a.IntersectionSize(b));
    }
    scratch.ClearAll(a);
    // O(|a|) reset leaves all-zero.
    EXPECT_EQ(scratch.IntersectionCount(FullSet(universe)), 0u);
  }
}

TEST(DenseCounter, CountsAndResetsTouchedOnly) {
  DenseCounter c(100);
  c.Increment(7);
  c.Increment(7);
  c.Increment(42);
  EXPECT_EQ(c.count(7), 2u);
  EXPECT_EQ(c.count(42), 1u);
  EXPECT_EQ(c.count(0), 0u);
  ASSERT_EQ(c.touched().size(), 2u);
  EXPECT_EQ(c.touched()[0], 7u);  // First-touch order.
  EXPECT_EQ(c.touched()[1], 42u);
  c.Reset();
  EXPECT_TRUE(c.touched().empty());
  EXPECT_EQ(c.count(7), 0u);
  EXPECT_EQ(c.count(42), 0u);
}

TEST(SubtreeCounter, CountsAnItemOnceAtCommonAncestors) {
  // 0 -> {1 -> {3, 4}, 2}; item A sits at 3 and 4, item B at 4 and 2,
  // item C at 3 only.
  const std::vector<uint32_t> parents = {UINT32_MAX, 0, 0, 1, 1};
  SubtreeCounter c(parents);
  const std::vector<uint32_t> item_a = {3, 4};
  const std::vector<uint32_t> item_b = {4, 2};
  c.AddItem(item_a);
  EXPECT_EQ(c.count(3), 1u);
  EXPECT_EQ(c.count(4), 1u);
  EXPECT_EQ(c.count(1), 1u);  // Not 2: A is one item.
  EXPECT_EQ(c.count(0), 1u);
  EXPECT_EQ(c.count(2), 0u);
  c.AddItem(item_b);
  EXPECT_EQ(c.count(4), 2u);
  EXPECT_EQ(c.count(1), 2u);
  EXPECT_EQ(c.count(2), 1u);
  EXPECT_EQ(c.count(0), 2u);
  EXPECT_EQ(c.touched(), (std::vector<uint32_t>{3, 1, 0, 4, 2}));
  c.AddItem({});  // An unplaced item touches nothing.
  EXPECT_EQ(c.touched().size(), 5u);
  const std::vector<uint32_t> item_c = {3};
  c.AddItem(item_c);  // One placement: its path, each node once.
  EXPECT_EQ(c.count(3), 2u);
  EXPECT_EQ(c.count(1), 3u);
  EXPECT_EQ(c.count(0), 3u);
  c.Reset();
  EXPECT_TRUE(c.touched().empty());
  EXPECT_EQ(c.count(0), 0u);
  c.AddItem(item_a);  // Stamps from before the reset do not hide nodes.
  EXPECT_EQ(c.count(1), 1u);
  EXPECT_EQ(c.count(0), 1u);
}

TEST(ItemSetIndex, InvertedListsAreExactAndSorted) {
  const OctInput input = RandomInput(500, 60, 30, 3);
  const ItemSetIndex index = ItemSetIndex::Build(input);
  for (ItemId item = 0; item < input.universe_size(); ++item) {
    const std::span<const SetId> list = index.SetsOf(item);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    for (SetId q = 0; q < input.num_sets(); ++q) {
      const bool listed =
          std::binary_search(list.begin(), list.end(), q);
      EXPECT_EQ(listed, input.set(q).items.Contains(item));
    }
  }
}

// The merge rebuilds one map per pass over fewer sets: a second Assign
// must leave nothing of the first.
TEST(ItemPostings, ReassignReplacesTheMap) {
  const OctInput big = RandomInput(500, 60, 30, 5);
  const OctInput small = RandomInput(200, 10, 20, 7);
  ItemPostings postings;
  postings.Assign(big.sets(), big.universe_size());
  postings.Assign(small.sets(), small.universe_size());
  for (ItemId item = 0; item < small.universe_size(); ++item) {
    std::vector<SetId> expected;
    for (SetId q = 0; q < small.num_sets(); ++q) {
      if (small.set(q).items.Contains(item)) expected.push_back(q);
    }
    EXPECT_TRUE(std::ranges::equal(postings.SetsOf(item), expected))
        << "item " << item;
  }
}

TEST(OverlapScratch, PartnersMatchBruteForce) {
  OctInput input = RandomInput(400, 40, 40, 13);
  // Relaxed bounds on a third of the universe so inter_strict differs
  // from inter.
  std::vector<uint32_t> bounds(input.universe_size(), 1);
  for (size_t i = 0; i < bounds.size(); i += 3) bounds[i] = 2;
  input.set_item_bounds(std::move(bounds));
  ASSERT_TRUE(input.HasRelaxedBounds());

  const ItemSetIndex index = ItemSetIndex::Build(input);
  ASSERT_NE(index.strict_items(), nullptr);
  OverlapScratch scratch(index);
  for (const bool later_only : {true, false}) {
    for (SetId q = 0; q < input.num_sets(); ++q) {
      const std::vector<PairCount>& got = scratch.Partners(q, later_only);
      // Brute force over all sets.
      size_t expected_partners = 0;
      for (SetId other = 0; other < input.num_sets(); ++other) {
        if (later_only && other <= q) continue;
        const ItemSet inter =
            input.set(q).items.Intersect(input.set(other).items);
        if (inter.empty()) continue;
        ++expected_partners;
        const auto it = std::find_if(
            got.begin(), got.end(),
            [other](const PairCount& pc) { return pc.other == other; });
        ASSERT_NE(it, got.end()) << "missing partner " << other;
        EXPECT_EQ(it->inter, inter.size());
        size_t strict = 0;
        for (ItemId item : inter) {
          if (input.ItemBound(item) == 1) ++strict;
        }
        EXPECT_EQ(it->inter_strict, strict);
      }
      EXPECT_EQ(got.size(), expected_partners);
    }
  }
}

TEST(OverlapScratch, StrictEqualsInterWithoutRelaxedBounds) {
  const OctInput input = RandomInput(300, 25, 30, 17);
  ASSERT_FALSE(input.HasRelaxedBounds());
  const ItemSetIndex index = ItemSetIndex::Build(input);
  EXPECT_EQ(index.strict_items(), nullptr);
  OverlapScratch scratch(index);
  for (SetId q = 0; q < input.num_sets(); ++q) {
    for (const PairCount& pc : scratch.Partners(q, /*later_only=*/true)) {
      EXPECT_EQ(pc.inter_strict, pc.inter);
    }
  }
}

TEST(ScanOverlapChunks, StatsPartitionThePairSpace) {
  const OctInput input = RandomInput(600, 120, 25, 19);
  const ItemSetIndex index = ItemSetIndex::Build(input);
  // Count intersecting pairs by brute force.
  size_t expected_visited = 0;
  const size_t n = input.num_sets();
  for (SetId a = 0; a < n; ++a) {
    for (SetId b = a + 1; b < n; ++b) {
      if (input.set(a).items.Intersects(input.set(b).items)) {
        ++expected_visited;
      }
    }
  }
  ThreadPool pool(4);
  const OverlapScanStats stats = ScanOverlapChunks(
      index, &pool, [](size_t begin, size_t end, OverlapScratch& scratch) {
        for (size_t q = begin; q < end; ++q) {
          scratch.Partners(static_cast<SetId>(q), /*later_only=*/true);
        }
      });
  EXPECT_EQ(stats.pairs_visited, expected_visited);
  EXPECT_EQ(stats.pairs_visited + stats.pairs_pruned, n * (n - 1) / 2);
  EXPECT_GT(stats.pairs_pruned, 0u);  // Sparse input: pruning must bite.
}

TEST(PrefixFilter, MinOverlapBoundsAreSoundAndTight) {
  // Soundness: any partner with raw similarity >= t (under the 1e-12 band
  // tolerance) has intersection >= MinOverlap. Exhaustive over small sizes.
  for (const double t : {0.5, 0.75, 0.8, 0.9, 0.95, 1.0}) {
    for (size_t size_a = 1; size_a <= 40; ++size_a) {
      const size_t oj = MinOverlapForJaccard(size_a, t);
      const size_t of1 = MinOverlapForF1(size_a, t);
      ASSERT_GE(oj, 1u);
      ASSERT_LE(oj, size_a);
      ASSERT_GE(of1, 1u);
      ASSERT_LE(of1, size_a);
      for (size_t size_b = 1; size_b <= 80; ++size_b) {
        const size_t max_inter = std::min(size_a, size_b);
        for (size_t inter = 0; inter <= max_inter; ++inter) {
          if (JaccardFromSizes(size_a, size_b, inter) + 1e-12 >= t) {
            EXPECT_GE(inter, oj) << "J: a=" << size_a << " b=" << size_b;
          }
          if (F1FromSizes(size_a, size_b, inter) + 1e-12 >= t) {
            EXPECT_GE(inter, of1) << "F1: a=" << size_a << " b=" << size_b;
          }
        }
      }
    }
  }
}

TEST(CondensedDistances, BitIdenticalToSerialOracle) {
  const OctInput input = RandomInput(900, 70, 45, 23);
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const cct::Embeddings emb =
      cct::EmbedInputSets(ItemSetIndex::Build(input), sim);
  const size_t n = emb.num_rows();
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const std::vector<float> dist =
        CondensedEuclideanDistances(emb.rows(), emb.squared_norms(), p);
    ASSERT_EQ(dist.size(), n * (n - 1) / 2);
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++k) {
        // Float equality on purpose: the kernel promises the exact same
        // accumulation order as the oracle.
        ASSERT_EQ(dist[k], static_cast<float>(emb.Distance(i, j)))
            << "pair (" << i << ", " << j << ")";
      }
    }
  }
}

// Each row against every set by brute force: the same columns and values,
// and the same norm up to summation order.
TEST(Embeddings, MatchBruteForce) {
  const OctInput input = RandomInput(700, 60, 35, 29);
  const Similarity sim(Variant::kPerfectRecall, 0.8);
  const cct::Embeddings emb =
      cct::EmbedInputSets(ItemSetIndex::Build(input), sim);
  ASSERT_EQ(emb.num_rows(), input.num_sets());
  for (SetId q = 0; q < input.num_sets(); ++q) {
    const ItemSet& a = input.set(q).items;
    std::vector<cct::Embeddings::Entry> expected;
    double norm = 0.0;
    for (SetId other = 0; other < input.num_sets(); ++other) {
      const ItemSet& b = input.set(other).items;
      const size_t inter = a.Intersect(b).size();
      if (inter == 0) continue;
      const double value = 0.5 * (RecallFromSizes(a.size(), inter) +
                                  PrecisionFromSizes(b.size(), inter));
      expected.push_back({other, static_cast<float>(value)});
      norm += value * value;
    }
    const auto& row = emb.row(q);
    ASSERT_EQ(row.size(), expected.size()) << "row " << q;
    for (size_t e = 0; e < row.size(); ++e) {
      EXPECT_EQ(row[e].col, expected[e].col);
      EXPECT_EQ(row[e].value, expected[e].value);
    }
    EXPECT_NEAR(emb.SquaredNorm(q), norm, 1e-9 * norm);
  }
}

/// Conflict analyses must agree field by field.
void ExpectSameAnalysis(const ctcr::ConflictAnalysis& x,
                        const ctcr::ConflictAnalysis& y) {
  EXPECT_EQ(x.rank, y.rank);
  EXPECT_EQ(x.by_rank, y.by_rank);
  EXPECT_EQ(x.conflicts2, y.conflicts2);
  EXPECT_EQ(x.conflicts3, y.conflicts3);
  EXPECT_EQ(x.must_together, y.must_together);
  EXPECT_EQ(x.pairs_examined, y.pairs_examined);
}

TEST(ConflictEquivalence, DatasetAFreshIndexAndSerialParallel) {
  // Exact variant: every properly-overlapping pair conflicts, so the
  // dataset is guaranteed to exercise the scan.
  const Similarity sim(Variant::kExact, 1.0);
  const data::Dataset ds = data::MakeDataset('A', sim, 0.05);
  const ItemSetIndex index = ItemSetIndex::Build(ds.input);
  ThreadPool serial(1);
  const auto base = ctcr::AnalyzeConflicts(index, sim,
                                           /*find_3conflicts=*/true, &serial);
  const auto fresh = ctcr::AnalyzeConflicts(ItemSetIndex::Build(ds.input),
                                            sim, true, &serial);
  const auto parallel = ctcr::AnalyzeConflicts(index, sim, true, nullptr);
  ExpectSameAnalysis(base, fresh);
  ExpectSameAnalysis(base, parallel);
  EXPECT_FALSE(base.conflicts2.empty());  // The dataset must exercise us.
}

TEST(CctEquivalence, TreeIdenticalIndexOnOff) {
  const Similarity sim(Variant::kJaccardThreshold, 0.8);
  const OctInput input = RandomInput(500, 80, 30, 31);
  const ItemSetIndex index = ItemSetIndex::Build(input);
  ThreadPool pool(4);
  cct::CctOptions plain;
  cct::CctOptions tuned;
  tuned.index = &index;
  tuned.pool = &pool;
  const cct::CctResult a = cct::BuildCategoryTree(input, sim, plain);
  const cct::CctResult b = cct::BuildCategoryTree(input, sim, tuned);
  EXPECT_EQ(SerializeTree(a.tree), SerializeTree(b.tree));
}

TEST(UnionFind, UnionsBySizeWithPathHalving) {
  UnionFind uf(6);
  EXPECT_EQ(uf.num_components(), 6u);
  uf.Union(0, 1);
  uf.Union(2, 3);
  EXPECT_EQ(uf.Union(1, 0), uf.Find(0));  // Already joined: common root.
  EXPECT_EQ(uf.num_components(), 4u);
  uf.Union(1, 3);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 4));
  EXPECT_EQ(uf.ComponentSize(3), 4u);
  EXPECT_EQ(uf.ComponentSize(5), 1u);
  EXPECT_EQ(uf.num_components(), 3u);
  // Find is stable under repetition (path halving converges).
  EXPECT_EQ(uf.Find(0), uf.Find(3));
  EXPECT_EQ(uf.Find(0), uf.Find(0));
}

#ifndef NDEBUG
using FromSortedDeathTest = ::testing::Test;

TEST(FromSortedDeathTest, RejectsUnsortedAndDuplicatesInDebug) {
  EXPECT_DEATH(ItemSet::FromSorted({3, 1, 2}), "");
  EXPECT_DEATH(ItemSet::FromSorted({1, 1, 2}), "");
}
#endif  // NDEBUG

}  // namespace
}  // namespace kernel
}  // namespace oct
