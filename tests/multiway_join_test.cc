// Tests for the multi-way chain join and its batched probe against brute
// force.

#include "join/multiway_join.h"

#include <algorithm>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// Brute-force chain join: consecutive relations' rectangles intersect.
std::vector<std::vector<uint32_t>> OracleChain(
    const std::vector<const std::vector<Rect>*>& relations) {
  std::vector<std::vector<uint32_t>> tuples;
  for (uint32_t i = 0; i < relations[0]->size(); ++i) {
    tuples.push_back({i});
  }
  for (size_t next = 1; next < relations.size(); ++next) {
    std::vector<std::vector<uint32_t>> extended;
    for (const auto& t : tuples) {
      const Rect& prev = (*relations[next - 1])[t.back()];
      for (uint32_t j = 0; j < relations[next]->size(); ++j) {
        if (prev.Intersects((*relations[next])[j])) {
          auto longer = t;
          longer.push_back(j);
          extended.push_back(std::move(longer));
        }
      }
    }
    tuples = std::move(extended);
  }
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

TEST(MultiwayJoinTest, TwoWayEqualsPairwiseJoin) {
  const auto rects_a = testutil::ClusteredRects(600, 921);
  const auto rects_b = testutil::ClusteredRects(500, 922);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects_a, topt);
  IndexedRelation b(rects_b, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const auto pairwise = RunSpatialJoin(a.tree(), b.tree(), jopt);
  const auto chain = RunChainSpatialJoin(
      {{&a.tree(), &rects_a}, {&b.tree(), &rects_b}}, jopt);
  EXPECT_EQ(chain.tuple_count, pairwise.pair_count);
}

TEST(MultiwayJoinTest, ThreeWayMatchesBruteForce) {
  const auto rects_a = testutil::ClusteredRects(300, 931, 5, 0.02);
  const auto rects_b = testutil::ClusteredRects(250, 932, 5, 0.02);
  const auto rects_c = testutil::ClusteredRects(280, 933, 5, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects_a, topt);
  IndexedRelation b(rects_b, topt);
  IndexedRelation c(rects_c, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  auto result = RunChainSpatialJoin({{&a.tree(), &rects_a},
                                     {&b.tree(), &rects_b},
                                     {&c.tree(), &rects_c}},
                                    jopt, /*collect_tuples=*/true);
  std::sort(result.tuples.begin(), result.tuples.end());
  EXPECT_EQ(result.tuples, OracleChain({&rects_a, &rects_b, &rects_c}));
  EXPECT_EQ(result.tuple_count, result.tuples.size());
  EXPECT_GT(result.stats.window_queries, 0u);
}

TEST(MultiwayJoinTest, FourWayMatchesBruteForce) {
  const auto rects_a = testutil::ClusteredRects(120, 941, 4, 0.03);
  const auto rects_b = testutil::ClusteredRects(110, 942, 4, 0.03);
  const auto rects_c = testutil::ClusteredRects(100, 943, 4, 0.03);
  const auto rects_d = testutil::ClusteredRects(90, 944, 4, 0.03);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects_a, topt);
  IndexedRelation b(rects_b, topt);
  IndexedRelation c(rects_c, topt);
  IndexedRelation d(rects_d, topt);
  JoinOptions jopt;
  auto result = RunChainSpatialJoin({{&a.tree(), &rects_a},
                                     {&b.tree(), &rects_b},
                                     {&c.tree(), &rects_c},
                                     {&d.tree(), &rects_d}},
                                    jopt, true);
  std::sort(result.tuples.begin(), result.tuples.end());
  EXPECT_EQ(result.tuples,
            OracleChain({&rects_a, &rects_b, &rects_c, &rects_d}));
}

// Brute-force chain join under an arbitrary exact predicate.
std::vector<std::vector<uint32_t>> OracleChainPredicate(
    const std::vector<const std::vector<Rect>*>& relations,
    const JoinOptions& options) {
  ComparisonCounter unused;
  std::vector<std::vector<uint32_t>> tuples;
  for (uint32_t i = 0; i < relations[0]->size(); ++i) {
    tuples.push_back({i});
  }
  for (size_t next = 1; next < relations.size(); ++next) {
    std::vector<std::vector<uint32_t>> extended;
    for (const auto& t : tuples) {
      const Rect& prev = (*relations[next - 1])[t.back()];
      for (uint32_t j = 0; j < relations[next]->size(); ++j) {
        if (EvaluatePredicateCounted(options.predicate, options.epsilon,
                                     prev, (*relations[next])[j], &unused)) {
          auto longer = t;
          longer.push_back(j);
          extended.push_back(std::move(longer));
        }
      }
    }
    tuples = std::move(extended);
  }
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// Regression: the probe phases used to test raw intersection against the
// unexpanded window, silently dropping every within-distance match at
// distance (0, ε] from phase 2 on.
TEST(MultiwayJoinTest, WithinDistanceChainFindsNonIntersectingMatches) {
  const auto rects_a = testutil::ClusteredRects(250, 981, 5, 0.02);
  const auto rects_b = testutil::ClusteredRects(220, 982, 5, 0.02);
  const auto rects_c = testutil::ClusteredRects(240, 983, 5, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects_a, topt);
  IndexedRelation b(rects_b, topt);
  IndexedRelation c(rects_c, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.predicate = JoinPredicate::kWithinDistance;
  jopt.epsilon = 0.015;
  const auto expected =
      OracleChainPredicate({&rects_a, &rects_b, &rects_c}, jopt);
  // The fix must matter on this data: some within-distance tuples must not
  // be plain-intersection tuples (those were the ones silently dropped).
  ASSERT_GT(expected.size(),
            OracleChain({&rects_a, &rects_b, &rects_c}).size());
  auto result = RunChainSpatialJoin(
      {{&a.tree(), &rects_a}, {&b.tree(), &rects_b}, {&c.tree(), &rects_c}},
      jopt, /*collect_tuples=*/true);
  std::sort(result.tuples.begin(), result.tuples.end());
  EXPECT_EQ(result.tuples, expected);
}

// Containment chains run through the same probe path: the exact predicate
// is now evaluated on the data entries instead of raw intersection.
TEST(MultiwayJoinTest, ContainmentChainMatchesOracle) {
  const auto rects_a = testutil::ClusteredRects(200, 991, 4, 0.06);
  const auto rects_b = testutil::ClusteredRects(300, 992, 4, 0.008);
  const auto rects_c = testutil::ClusteredRects(250, 993, 4, 0.002);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects_a, topt);
  IndexedRelation b(rects_b, topt);
  IndexedRelation c(rects_c, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.predicate = JoinPredicate::kContains;
  const auto expected =
      OracleChainPredicate({&rects_a, &rects_b, &rects_c}, jopt);
  auto result = RunChainSpatialJoin(
      {{&a.tree(), &rects_a}, {&b.tree(), &rects_b}, {&c.tree(), &rects_c}},
      jopt, /*collect_tuples=*/true);
  std::sort(result.tuples.begin(), result.tuples.end());
  EXPECT_EQ(result.tuples, expected);
}

TEST(MultiwayJoinTest, EmptyMiddleRelationYieldsNothing) {
  const auto rects_a = testutil::RandomRects(50, 951);
  const std::vector<Rect> empty;
  const auto rects_c = testutil::RandomRects(50, 952);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects_a, topt);
  IndexedRelation b(empty, topt);
  IndexedRelation c(rects_c, topt);
  JoinOptions jopt;
  const auto result = RunChainSpatialJoin(
      {{&a.tree(), &rects_a}, {&b.tree(), &empty}, {&c.tree(), &rects_c}},
      jopt);
  EXPECT_EQ(result.tuple_count, 0u);
}

// The (query, id) matches of a batch by scanning every rectangle of the
// relation with the exact predicate, sorted.
std::vector<std::pair<uint32_t, uint32_t>> OracleProbe(
    const std::vector<Rect>& queries, const std::vector<Rect>& rects,
    const JoinOptions& options) {
  ComparisonCounter unused;
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  for (uint32_t i = 0; i < queries.size(); ++i) {
    for (uint32_t id = 0; id < rects.size(); ++id) {
      if (EvaluatePredicateCounted(options.predicate, options.epsilon,
                                   queries[i], rects[id], &unused)) {
        matches.emplace_back(i, id);
      }
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

TEST(ChainProbeTest, MatchesBruteForceForEveryPredicateAndBatchSize) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const auto deep_rects = testutil::ClusteredRects(2000, 991, 6, 0.03);
  const auto leaf_rects = testutil::ClusteredRects(30, 992, 3, 0.05);
  const std::vector<Rect> no_rects;
  const IndexedRelation deep(deep_rects, topt);
  const IndexedRelation leaf(leaf_rects, topt);
  const IndexedRelation empty(no_rects, topt);
  ASSERT_GE(deep.tree().height(), 3);
  ASSERT_EQ(leaf.tree().height(), 1);  // the root is a leaf

  // 300 windows, more than the 51 entries of a 1 KiB page. Among the first
  // seven: a duplicate, a point window on a data rectangle's corner and its
  // duplicate, and a window covering everything.
  std::vector<Rect> pool = testutil::ClusteredRects(300, 993, 6, 0.04);
  pool[2] = pool[0];
  const Rect& corner = deep_rects[17];
  pool[3] = Rect{corner.xl, corner.yl, corner.xl, corner.yl};
  pool[5] = pool[3];
  pool[6] = Rect{0.0f, 0.0f, 1.0f, 1.0f};
  pool[150] = pool[149];
  const Rect& leaf_corner = leaf_rects[4];
  pool[200] = Rect{leaf_corner.xu, leaf_corner.yu, leaf_corner.xu,
                   leaf_corner.yu};

  struct Tree {
    const char* name;
    const RTree* tree;
    const std::vector<Rect>* rects;
  };
  const Tree trees[] = {{"deep", &deep.tree(), &deep_rects},
                        {"leaf_root", &leaf.tree(), &leaf_rects},
                        {"empty", &empty.tree(), &no_rects}};
  struct Predicate {
    JoinPredicate predicate;
    double epsilon;
  };
  const Predicate predicates[] = {{JoinPredicate::kIntersects, 0.0},
                                  {JoinPredicate::kContains, 0.0},
                                  {JoinPredicate::kContainedBy, 0.0},
                                  {JoinPredicate::kWithinDistance, 0.005},
                                  {JoinPredicate::kWithinDistance, 0.02}};
  size_t nonempty = 0;
  for (const Tree& t : trees) {
    for (const Predicate& p : predicates) {
      JoinOptions jopt;
      jopt.predicate = p.predicate;
      jopt.epsilon = p.epsilon;
      Statistics stats;
      BufferPool pages(BufferPool::Options{16 * 1024, kPageSize1K});
      // One probe across every batch: its scratch carries over.
      ChainProbe probe(*t.tree, &pages, jopt, &stats);
      for (const size_t batch : {size_t{1}, size_t{7}, size_t{300}}) {
        const std::vector<Rect> queries(pool.begin(), pool.begin() + batch);
        const std::string where = std::string(t.name) + " " +
                                  JoinPredicateName(p.predicate) + " eps=" +
                                  std::to_string(p.epsilon) +
                                  " batch=" + std::to_string(batch);
        std::vector<std::pair<uint32_t, uint32_t>> got;
        const uint64_t window_queries = stats.window_queries;
        probe.Run(std::span<const Rect>(queries),
                  [&got](uint32_t i, uint32_t id) { got.emplace_back(i, id); });
        EXPECT_EQ(stats.window_queries - window_queries, batch) << where;
        std::sort(got.begin(), got.end());
        const auto expected = OracleProbe(queries, *t.rects, jopt);
        EXPECT_EQ(got, expected) << where;
        nonempty += !expected.empty();
      }
    }
  }
  // The oracle must have had matches to find on the non-empty trees.
  EXPECT_GE(nonempty, 2u * std::size(predicates));
}

TEST(ChainProbeTest, EmptyBatchTouchesNoPage) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const auto rects = testutil::ClusteredRects(200, 994);
  const IndexedRelation rel(rects, topt);
  Statistics stats;
  BufferPool pages(BufferPool::Options{16 * 1024, kPageSize1K});
  ChainProbe probe(rel.tree(), &pages, JoinOptions{}, &stats);
  bool called = false;
  probe.Run(std::span<const Rect>(),
            [&called](uint32_t, uint32_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(stats.window_queries, 0u);
  EXPECT_EQ(stats.disk_reads + stats.buffer_hits, 0u);
}

TEST(MultiwayJoinTest, RejectsSingleRelation) {
  const auto rects = testutil::RandomRects(10, 961);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(rects, topt);
  JoinOptions jopt;
  EXPECT_DEATH(RunChainSpatialJoin({{&a.tree(), &rects}}, jopt),
               ">= 2 relations");
}

}  // namespace
}  // namespace rsj
