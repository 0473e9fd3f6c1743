// Tests for the generalized join predicates (§2.1 "other spatial
// operators"): exact evaluation semantics and full joins against brute
// force for every predicate, algorithm, and tree-height combination.

#include "join/predicate.h"

#include <string>

#include <gtest/gtest.h>

#include "join/join_runner.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// --- predicate evaluation semantics ---

TEST(PredicateEvalTest, IntersectsMatchesRect) {
  ComparisonCounter c;
  const Rect a{0, 0, 2, 2};
  const Rect b{1, 1, 3, 3};
  EXPECT_TRUE(EvaluatePredicateCounted(JoinPredicate::kIntersects, 0, a, b,
                                       &c));
  EXPECT_FALSE(EvaluatePredicateCounted(JoinPredicate::kIntersects, 0, a,
                                        Rect{5, 5, 6, 6}, &c));
}

TEST(PredicateEvalTest, ContainsOrientation) {
  ComparisonCounter c;
  const Rect outer{0, 0, 10, 10};
  const Rect inner{2, 2, 3, 3};
  EXPECT_TRUE(EvaluatePredicateCounted(JoinPredicate::kContains, 0, outer,
                                       inner, &c));
  EXPECT_FALSE(EvaluatePredicateCounted(JoinPredicate::kContains, 0, inner,
                                        outer, &c));
  EXPECT_TRUE(EvaluatePredicateCounted(JoinPredicate::kContainedBy, 0, inner,
                                       outer, &c));
  EXPECT_FALSE(EvaluatePredicateCounted(JoinPredicate::kContainedBy, 0,
                                        outer, inner, &c));
}

TEST(PredicateEvalTest, ContainsIsClosed) {
  ComparisonCounter c;
  const Rect r{0, 0, 1, 1};
  EXPECT_TRUE(EvaluatePredicateCounted(JoinPredicate::kContains, 0, r, r,
                                       &c));
}

TEST(PredicateEvalTest, WithinDistanceEuclidean) {
  ComparisonCounter c;
  const Rect a{0, 0, 1, 1};
  const Rect diag{4, 5, 5, 6};  // gap (3, 4): distance 5
  EXPECT_TRUE(EvaluatePredicateCounted(JoinPredicate::kWithinDistance, 5.0,
                                       a, diag, &c));
  EXPECT_FALSE(EvaluatePredicateCounted(JoinPredicate::kWithinDistance, 4.99,
                                        a, diag, &c));
  // Intersecting rectangles are within any distance.
  EXPECT_TRUE(EvaluatePredicateCounted(JoinPredicate::kWithinDistance, 0.0,
                                       a, Rect{0.5f, 0.5f, 2, 2}, &c));
}

TEST(PredicateEvalTest, ContainsCountsAtMostFour) {
  ComparisonCounter c;
  const Rect outer{0, 0, 10, 10};
  outer.ContainsCounted(Rect{1, 1, 2, 2}, &c);
  EXPECT_EQ(c.count(), 4u);
  c.Reset();
  outer.ContainsCounted(Rect{-5, 0, 1, 1}, &c);  // fails on first axis
  EXPECT_EQ(c.count(), 1u);
}

TEST(PredicateEvalTest, ExpansionOnlyForDistance) {
  EXPECT_DOUBLE_EQ(PredicateExpansion(JoinPredicate::kIntersects, 9.0), 0.0);
  EXPECT_DOUBLE_EQ(PredicateExpansion(JoinPredicate::kContains, 9.0), 0.0);
  EXPECT_DOUBLE_EQ(PredicateExpansion(JoinPredicate::kWithinDistance, 9.0),
                   9.0);
}

TEST(PredicateEvalTest, Names) {
  EXPECT_STREQ(JoinPredicateName(JoinPredicate::kIntersects), "intersects");
  EXPECT_STREQ(JoinPredicateName(JoinPredicate::kContains), "contains");
  EXPECT_STREQ(JoinPredicateName(JoinPredicate::kContainedBy),
               "contained-by");
  EXPECT_STREQ(JoinPredicateName(JoinPredicate::kWithinDistance),
               "within-distance");
}

// --- full joins against brute force ---

std::vector<std::pair<uint32_t, uint32_t>> Oracle(
    const std::vector<Rect>& r, const std::vector<Rect>& s,
    JoinPredicate pred, double eps) {
  ComparisonCounter scratch;
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < s.size(); ++j) {
      if (EvaluatePredicateCounted(pred, eps, r[i], s[j], &scratch)) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

struct PredicateJoinCase {
  JoinPredicate predicate;
  double epsilon;
  JoinAlgorithm algorithm;
  const char* name;
};

class PredicateJoinTest
    : public ::testing::TestWithParam<PredicateJoinCase> {};

TEST_P(PredicateJoinTest, MatchesBruteForce) {
  const PredicateJoinCase& c = GetParam();
  // Mixed sizes so containment actually fires: small rects in S, a blend
  // of small and large rects in R.
  auto rects_r = testutil::ClusteredRects(500, 811, 6, /*extent=*/0.002);
  const auto large = testutil::ClusteredRects(120, 812, 6, /*extent=*/0.15);
  rects_r.insert(rects_r.end(), large.begin(), large.end());
  const auto rects_s = testutil::ClusteredRects(600, 813, 6,
                                                /*extent=*/0.004);

  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);

  JoinOptions jopt;
  jopt.algorithm = c.algorithm;
  jopt.predicate = c.predicate;
  jopt.epsilon = c.epsilon;
  jopt.buffer_bytes = 16 * 1024;
  const auto result = RunSpatialJoin(r.tree(), s.tree(), jopt, true);
  EXPECT_EQ(testutil::Canonical(result.chunks),
            testutil::Canonical(
                Oracle(rects_r, rects_s, c.predicate, c.epsilon)));
}

INSTANTIATE_TEST_SUITE_P(
    PredicatesAndAlgorithms, PredicateJoinTest,
    ::testing::Values(
        PredicateJoinCase{JoinPredicate::kContains, 0, JoinAlgorithm::kSJ1,
                          "contains_sj1"},
        PredicateJoinCase{JoinPredicate::kContains, 0, JoinAlgorithm::kSJ4,
                          "contains_sj4"},
        PredicateJoinCase{JoinPredicate::kContainedBy, 0,
                          JoinAlgorithm::kSJ2, "containedby_sj2"},
        PredicateJoinCase{JoinPredicate::kContainedBy, 0,
                          JoinAlgorithm::kSJ5, "containedby_sj5"},
        PredicateJoinCase{JoinPredicate::kWithinDistance, 0.01,
                          JoinAlgorithm::kSJ1, "distance001_sj1"},
        PredicateJoinCase{JoinPredicate::kWithinDistance, 0.01,
                          JoinAlgorithm::kSJ3, "distance001_sj3"},
        PredicateJoinCase{JoinPredicate::kWithinDistance, 0.05,
                          JoinAlgorithm::kSJ4, "distance005_sj4"},
        PredicateJoinCase{JoinPredicate::kWithinDistance, 0.0,
                          JoinAlgorithm::kSJ4, "distance0_sj4"},
        PredicateJoinCase{JoinPredicate::kIntersects, 0,
                          JoinAlgorithm::kSJ4, "intersects_sj4"}),
    [](const ::testing::TestParamInfo<PredicateJoinCase>& info) {
      return info.param.name;
    });

TEST(PredicateJoinHeightTest, DistanceJoinAcrossHeightGap) {
  // Different tree heights exercise the window-query path with expansion.
  const auto rects_r = testutil::ClusteredRects(3000, 821);
  const auto rects_s = testutil::ClusteredRects(50, 822);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  ASSERT_GT(r.tree().height(), s.tree().height());
  for (const HeightPolicy policy :
       {HeightPolicy::kPerPairQueries, HeightPolicy::kBatchedSubtree,
        HeightPolicy::kPinnedQueries}) {
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    jopt.predicate = JoinPredicate::kWithinDistance;
    jopt.epsilon = 0.02;
    jopt.height_policy = policy;
    const auto result = RunSpatialJoin(r.tree(), s.tree(), jopt, true);
    EXPECT_EQ(testutil::Canonical(result.chunks),
              testutil::Canonical(Oracle(rects_r, rects_s,
                                         JoinPredicate::kWithinDistance,
                                         0.02)))
        << "policy " << HeightPolicyName(policy);
    // Swapped operands (S deeper side carries no expansion).
    const auto swapped = RunSpatialJoin(s.tree(), r.tree(), jopt, true);
    EXPECT_EQ(testutil::Canonical(swapped.chunks),
              testutil::Canonical(Oracle(rects_s, rects_r,
                                         JoinPredicate::kWithinDistance,
                                         0.02)));
  }
}

TEST(PredicateJoinHeightTest, ContainsAcrossHeightGap) {
  auto rects_r = testutil::ClusteredRects(2500, 831, 8, /*extent=*/0.08);
  const auto rects_s = testutil::ClusteredRects(60, 832, 8,
                                                /*extent=*/0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  ASSERT_GT(r.tree().height(), s.tree().height());
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.predicate = JoinPredicate::kContains;
  const auto result = RunSpatialJoin(r.tree(), s.tree(), jopt, true);
  EXPECT_EQ(testutil::Canonical(result.chunks),
            testutil::Canonical(
                Oracle(rects_r, rects_s, JoinPredicate::kContains, 0)));
}

TEST(PredicateJoinHeightTest, BatchedPolicyMatchesOracleAcrossTwoLevels) {
  // Policy (b) under every algorithm and predicate, with R deeper and with
  // S deeper, across a gap of two levels: every batch descends through a
  // directory node of the deep tree before it reaches data nodes.
  const auto rects_deep = testutil::ClusteredRects(3000, 861, 6, 0.04);
  const auto rects_leaf = testutil::ClusteredRects(45, 862, 6, 0.04);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation deep(rects_deep, topt);
  IndexedRelation leaf(rects_leaf, topt);
  ASSERT_EQ(leaf.tree().height(), 1);  // a leaf root
  ASSERT_GE(deep.tree().height(), 3);
  struct Case {
    JoinPredicate predicate;
    double epsilon;
  };
  for (const Case c : {Case{JoinPredicate::kIntersects, 0.0},
                       Case{JoinPredicate::kContains, 0.0},
                       Case{JoinPredicate::kContainedBy, 0.0},
                       Case{JoinPredicate::kWithinDistance, 0.01}}) {
    for (const bool r_is_deep : {true, false}) {
      const auto& rects_r = r_is_deep ? rects_deep : rects_leaf;
      const auto& rects_s = r_is_deep ? rects_leaf : rects_deep;
      const RTree& r = r_is_deep ? deep.tree() : leaf.tree();
      const RTree& s = r_is_deep ? leaf.tree() : deep.tree();
      const auto expected = testutil::Canonical(
          Oracle(rects_r, rects_s, c.predicate, c.epsilon));
      const std::string where = std::string(JoinPredicateName(c.predicate)) +
                                (r_is_deep ? " R deep" : " S deep");
      EXPECT_FALSE(expected.empty()) << where;
      for (const JoinAlgorithm algorithm :
           {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
            JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
            JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5}) {
        JoinOptions jopt;
        jopt.algorithm = algorithm;
        jopt.predicate = c.predicate;
        jopt.epsilon = c.epsilon;
        jopt.height_policy = HeightPolicy::kBatchedSubtree;
        const auto result = RunSpatialJoin(r, s, jopt, true);
        EXPECT_EQ(testutil::Canonical(result.chunks), expected)
            << where << " " << JoinAlgorithmName(algorithm);
        EXPECT_GT(result.stats.window_queries, 0u)
            << where << " " << JoinAlgorithmName(algorithm);
      }
    }
  }
}

TEST(PredicateJoinTest, DistanceResultGrowsWithEpsilon) {
  const auto rects = testutil::ClusteredRects(800, 841);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects, topt);
  IndexedRelation s(rects, topt);
  uint64_t previous = 0;
  for (const double eps : {0.0, 0.005, 0.02, 0.1}) {
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    jopt.predicate = JoinPredicate::kWithinDistance;
    jopt.epsilon = eps;
    const uint64_t count = RunSpatialJoin(r.tree(), s.tree(), jopt).pair_count;
    EXPECT_GE(count, previous) << "epsilon " << eps;
    previous = count;
  }
}

TEST(PredicateJoinTest, ContainsSubsetOfIntersects) {
  auto rects_r = testutil::ClusteredRects(400, 851, 6, /*extent=*/0.1);
  const auto rects_s = testutil::ClusteredRects(400, 852, 6,
                                                /*extent=*/0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  auto run = [&](JoinPredicate pred) {
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    jopt.predicate = pred;
    auto res = RunSpatialJoin(r.tree(), s.tree(), jopt, true);
    return testutil::Canonical(res.chunks);
  };
  const auto contains = run(JoinPredicate::kContains);
  const auto intersects = run(JoinPredicate::kIntersects);
  EXPECT_TRUE(std::includes(intersects.begin(), intersects.end(),
                            contains.begin(), contains.end()));
  EXPECT_LT(contains.size(), intersects.size());
  EXPECT_GT(contains.size(), 0u);
}

}  // namespace
}  // namespace rsj
