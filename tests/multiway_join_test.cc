// Tests for the multi-way chain join (RunChainSpatialJoin, the one-thread
// run of the chain executor) against brute force.

#include "join/multiway_join.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "exec/multiway_executor.h"
#include "join/join_runner.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

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
  EXPECT_EQ(result.tuples,
            testutil::ChainOracle({rects_a, rects_b, rects_c}, jopt));
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
            testutil::ChainOracle({rects_a, rects_b, rects_c, rects_d}, jopt));
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
      testutil::ChainOracle({rects_a, rects_b, rects_c}, jopt);
  // The fix must matter on this data: some within-distance tuples must not
  // be plain-intersection tuples (those were the ones silently dropped).
  ASSERT_GT(expected.size(),
            testutil::ChainOracle({rects_a, rects_b, rects_c}, JoinOptions{})
                .size());
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
      testutil::ChainOracle({rects_a, rects_b, rects_c}, jopt);
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
