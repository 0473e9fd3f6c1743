// Tests for the SortedIntersectionTest plane sweep: correctness against the
// nested-loop oracle (including a randomized parameterized sweep), emission
// order, comparison accounting, and the full-dataset sweep join.

#include "geom/plane_sweep.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace rsj {
namespace {

std::vector<IndexedRect> ToIndexed(const std::vector<Rect>& rects) {
  std::vector<IndexedRect> out;
  out.reserve(rects.size());
  for (uint32_t i = 0; i < rects.size(); ++i) {
    out.push_back(IndexedRect{rects[i], i});
  }
  return out;
}

TEST(SortedIntersectionTest, EmptyInputs) {
  ComparisonCounter counter;
  const std::vector<IndexedRect> empty;
  const std::vector<IndexedRect> one = ToIndexed({Rect{0, 0, 1, 1}});
  EXPECT_TRUE(SortedIntersectionTestPairs(empty, empty, &counter).empty());
  EXPECT_TRUE(SortedIntersectionTestPairs(one, empty, &counter).empty());
  EXPECT_TRUE(SortedIntersectionTestPairs(empty, one, &counter).empty());
  EXPECT_EQ(counter.count(), 0u);
}

TEST(SortedIntersectionTest, PaperFigure5Example) {
  // Figure 5 of the paper: the sweep stops at r1, s1, r2, s2, r3 and tests
  // r1<->s1, s1<->r2, r2<->s2, r2<->s3, r3<->s3.
  std::vector<IndexedRect> rseq = ToIndexed({
      Rect{0.0f, 2.0f, 2.0f, 4.0f},   // r1
      Rect{1.5f, 0.0f, 3.5f, 2.5f},   // r2
      Rect{5.0f, 1.0f, 7.0f, 3.0f},   // r3
  });
  std::vector<IndexedRect> sseq = ToIndexed({
      Rect{1.0f, 1.5f, 2.5f, 3.0f},   // s1
      Rect{3.0f, 0.5f, 4.5f, 2.0f},   // s2
      Rect{4.0f, 1.0f, 6.0f, 2.5f},   // s3
  });
  ComparisonCounter counter;
  const auto pairs = SortedIntersectionTestPairs(rseq, sseq, &counter);
  // Intersections: (r1,s1), (r2,s1), (r2,s2), (r3,s3).
  const std::vector<std::pair<uint32_t, uint32_t>> expected{
      {0, 0}, {1, 0}, {1, 1}, {2, 2}};
  EXPECT_EQ(testutil::Canonical(pairs), expected);
}

TEST(SortedIntersectionTest, SweepOrderStartsAtLeftmost) {
  // Pairs must be emitted in sweep-line order: the pair involving the
  // leftmost rectangle first.
  std::vector<IndexedRect> rseq = ToIndexed({
      Rect{0, 0, 10, 1},  // spans everything
  });
  std::vector<IndexedRect> sseq = ToIndexed({
      Rect{1, 0, 2, 1},
      Rect{4, 0, 5, 1},
      Rect{8, 0, 9, 1},
  });
  ComparisonCounter counter;
  const auto pairs = SortedIntersectionTestPairs(rseq, sseq, &counter);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<uint32_t, uint32_t>{0, 0}));
  EXPECT_EQ(pairs[1], (std::pair<uint32_t, uint32_t>{0, 1}));
  EXPECT_EQ(pairs[2], (std::pair<uint32_t, uint32_t>{0, 2}));
}

TEST(SortedIntersectionTest, TouchingRectanglesCount) {
  std::vector<IndexedRect> rseq = ToIndexed({Rect{0, 0, 1, 1}});
  std::vector<IndexedRect> sseq = ToIndexed({Rect{1, 1, 2, 2}});  // corner
  ComparisonCounter counter;
  EXPECT_EQ(SortedIntersectionTestPairs(rseq, sseq, &counter).size(), 1u);
}

TEST(SortedIntersectionTest, IdenticalSequencesSelfJoin) {
  const auto rects = testutil::RandomRects(50, /*seed=*/5, /*extent=*/0.2);
  auto seq = ToIndexed(rects);
  SortByLowerX(&seq);
  ComparisonCounter counter;
  const auto pairs = SortedIntersectionTestPairs(seq, seq, &counter);
  const auto oracle = NestedLoopIntersectionPairs(rects, rects);
  EXPECT_EQ(testutil::Canonical(pairs).size(), oracle.size());
  // Self-join output contains every (i, i).
  size_t self_pairs = 0;
  for (const auto& p : pairs) self_pairs += p.first == p.second;
  EXPECT_EQ(self_pairs, rects.size());
}

TEST(SortedIntersectionTest, ComparisonCountIsLinearPlusMatches) {
  // Disjoint x-ranges: the sweep must finish in O(n + m) comparisons.
  std::vector<Rect> rrects;
  std::vector<Rect> srects;
  for (int i = 0; i < 500; ++i) {
    const float x = 2.0f * static_cast<float>(i);
    rrects.push_back(Rect{x, 0, x + 0.5f, 1});
    srects.push_back(Rect{x + 1.0f, 0, x + 1.4f, 1});
  }
  auto rseq = ToIndexed(rrects);
  auto sseq = ToIndexed(srects);
  ComparisonCounter counter;
  const auto pairs = SortedIntersectionTestPairs(rseq, sseq, &counter);
  EXPECT_TRUE(pairs.empty());
  EXPECT_LE(counter.count(), 4u * (rrects.size() + srects.size()));
}

// Parameterized property: sweep output == nested loop output on random
// inputs of various sizes, extents, and seeds.
struct SweepCase {
  size_t n;
  size_t m;
  double extent;
  uint64_t seed;
};

class SweepPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SweepPropertyTest, MatchesNestedLoopOracle) {
  const SweepCase& c = GetParam();
  const auto rrects = testutil::RandomRects(c.n, c.seed, c.extent);
  const auto srects = testutil::RandomRects(c.m, c.seed + 1000, c.extent);
  auto rseq = ToIndexed(rrects);
  auto sseq = ToIndexed(srects);
  SortByLowerX(&rseq);
  SortByLowerX(&sseq);
  ComparisonCounter counter;
  const auto sweep =
      testutil::Canonical(SortedIntersectionTestPairs(rseq, sseq, &counter));
  const auto oracle =
      testutil::Canonical(NestedLoopIntersectionPairs(rrects, srects));
  EXPECT_EQ(sweep, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SweepPropertyTest,
    ::testing::Values(
        SweepCase{0, 10, 0.1, 1}, SweepCase{10, 0, 0.1, 2},
        SweepCase{1, 1, 0.5, 3}, SweepCase{5, 7, 0.9, 4},
        SweepCase{20, 20, 0.01, 5}, SweepCase{50, 50, 0.05, 6},
        SweepCase{100, 40, 0.2, 7}, SweepCase{40, 100, 0.2, 8},
        SweepCase{200, 200, 0.001, 9}, SweepCase{128, 128, 0.5, 10},
        SweepCase{300, 300, 0.02, 11}, SweepCase{333, 77, 0.15, 12}));

// Degenerate geometry: points and zero-width rectangles.
TEST(SortedIntersectionTest, DegenerateRectangles) {
  std::vector<Rect> rrects{Rect{1, 1, 1, 1},      // point
                           Rect{0, 0, 0, 5},      // vertical segment
                           Rect{2, 2, 4, 2}};     // horizontal segment
  std::vector<Rect> srects{Rect{1, 1, 2, 2},      // touches the point
                           Rect{0, 3, 1, 4},      // crosses the segment
                           Rect{3, 0, 3, 3}};     // crosses the h-segment
  auto rseq = ToIndexed(rrects);
  auto sseq = ToIndexed(srects);
  SortByLowerX(&rseq);
  SortByLowerX(&sseq);
  ComparisonCounter counter;
  const auto sweep =
      testutil::Canonical(SortedIntersectionTestPairs(rseq, sseq, &counter));
  const auto oracle =
      testutil::Canonical(NestedLoopIntersectionPairs(rrects, srects));
  EXPECT_EQ(sweep, oracle);
}

TEST(FullSweepJoinTest, CountsMatchOracle) {
  const auto rrects = testutil::ClusteredRects(400, /*seed=*/31);
  const auto srects = testutil::ClusteredRects(300, /*seed=*/32);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const uint64_t count = FullSweepJoin(rrects, srects, &pairs);
  const auto oracle = NestedLoopIntersectionPairs(rrects, srects);
  EXPECT_EQ(count, oracle.size());
  EXPECT_EQ(testutil::Canonical(std::move(pairs)),
            testutil::Canonical(oracle));
}

TEST(FullSweepJoinTest, NullPairsOutJustCounts) {
  const auto rects = testutil::RandomRects(100, /*seed=*/33);
  const uint64_t count = FullSweepJoin(rects, rects, nullptr);
  EXPECT_GE(count, rects.size());  // at least the self pairs
}

}  // namespace
}  // namespace rsj
