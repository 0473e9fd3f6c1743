// Unit tests for the RectBlock SoA layout and the batch geometry kernels
// (geom/simd_kernels.h): mask correctness on touching / degenerate / empty
// rectangles, tail lanes at non-multiple-of-width sizes, and the hard
// parity contract — scalar and SIMD dispatch produce identical hit
// sequences AND identical comparison counts on every input.

#include "geom/simd_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "datagen/rng.h"
#include "geom/plane_sweep.h"
#include "join/predicate.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// Restores the process-wide kernel mode around each test.
class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveGeomKernelMode(); }
  void TearDown() override { SetGeomKernelMode(saved_); }

 private:
  GeomKernelMode saved_ = GeomKernelMode::kScalar;
};

struct KernelRun {
  std::vector<uint32_t> hits;
  uint64_t comparisons = 0;
};

KernelRun RunOverlap(GeomKernelMode mode, const RectBlock& block,
                     const Rect& query, OverlapSubject subject) {
  SetGeomKernelMode(mode);
  KernelRun run;
  ComparisonCounter counter;
  CountedOverlapHits(block, query, subject, &counter, &run.hits);
  run.comparisons = counter.count();
  return run;
}

// The pre-block reference: the scalar engine loop, entry by entry.
KernelRun ReferenceOverlap(const RectBlock& block, const Rect& query,
                           OverlapSubject subject) {
  KernelRun run;
  ComparisonCounter counter;
  for (size_t i = 0; i < block.size(); ++i) {
    const Rect b = block.RectAt(i);
    const bool hit = subject == OverlapSubject::kBlock
                         ? b.IntersectsCounted(query, &counter)
                         : query.IntersectsCounted(b, &counter);
    if (hit) run.hits.push_back(static_cast<uint32_t>(i));
  }
  run.comparisons = counter.count();
  return run;
}

void ExpectSameRun(const KernelRun& a, const KernelRun& b,
                   const char* label) {
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.comparisons, b.comparisons) << label;
}

RectBlock BlockOf(const std::vector<Rect>& rects) {
  RectBlock block;
  block.AssignRects(std::span<const Rect>(rects), 0.0);
  return block;
}

TEST_F(SimdKernelsTest, TouchingAndDegenerateRects) {
  // Closed-set semantics: touching edges/corners intersect; degenerate
  // points and segments are valid rectangles.
  const std::vector<Rect> rects = {
      {0, 0, 1, 1},          // touches query edge at x = 1
      {1, 1, 2, 2},          // overlaps
      {2, 2, 3, 3},          // touches query corner at (2, 2)
      {2.5f, 0, 2.5f, 5},    // degenerate vertical segment, disjoint in x
      {1.5f, 1.5f, 1.5f, 1.5f},  // degenerate point inside
      {5, 5, 6, 6},          // disjoint
  };
  const Rect query{1, 1, 2, 2};
  const RectBlock block = BlockOf(rects);
  for (const OverlapSubject subject :
       {OverlapSubject::kBlock, OverlapSubject::kQuery}) {
    const KernelRun ref = ReferenceOverlap(block, query, subject);
    EXPECT_EQ(ref.hits, (std::vector<uint32_t>{0, 1, 2, 4}));
    ExpectSameRun(RunOverlap(GeomKernelMode::kScalar, block, query, subject),
                  ref, "scalar vs reference");
    ExpectSameRun(RunOverlap(GeomKernelMode::kSimd, block, query, subject),
                  ref, "simd vs reference");
  }
}

TEST_F(SimdKernelsTest, EmptySentinelNeverHits) {
  // Rect::Empty() has inverted bounds and must intersect nothing, whether
  // it sits in the block or is the query.
  std::vector<Rect> rects = testutil::RandomRects(37, 7);
  rects[3] = Rect::Empty();
  rects[36] = Rect::Empty();
  const RectBlock block = BlockOf(rects);
  for (const OverlapSubject subject :
       {OverlapSubject::kBlock, OverlapSubject::kQuery}) {
    const KernelRun ref = ReferenceOverlap(block, Rect{0, 0, 1, 1}, subject);
    for (const uint32_t h : ref.hits) {
      EXPECT_NE(h, 3u);
      EXPECT_NE(h, 36u);
    }
    ExpectSameRun(
        RunOverlap(GeomKernelMode::kSimd, block, Rect{0, 0, 1, 1}, subject),
        ref, "simd vs reference");
    const KernelRun empty_query =
        RunOverlap(GeomKernelMode::kSimd, block, Rect::Empty(), subject);
    EXPECT_TRUE(empty_query.hits.empty());
    ExpectSameRun(empty_query, ReferenceOverlap(block, Rect::Empty(), subject),
                  "empty query");
  }
}

TEST_F(SimdKernelsTest, TailLanesAtEverySmallSize) {
  // Every size from 0 to 2 full SSE groups + 1, so each tail width (0-3
  // lanes) is exercised on both sides of the group boundary.
  for (size_t n = 0; n <= 9; ++n) {
    const std::vector<Rect> all = testutil::RandomRects(9, 11 + n, 0.4);
    const std::vector<Rect> rects(all.begin(), all.begin() + n);
    const RectBlock block = BlockOf(rects);
    const Rect query = all.back();
    for (const OverlapSubject subject :
         {OverlapSubject::kBlock, OverlapSubject::kQuery}) {
      const KernelRun ref = ReferenceOverlap(block, query, subject);
      ExpectSameRun(RunOverlap(GeomKernelMode::kScalar, block, query, subject),
                    ref, "scalar tail");
      ExpectSameRun(RunOverlap(GeomKernelMode::kSimd, block, query, subject),
                    ref, "simd tail");
    }
  }
}

TEST_F(SimdKernelsTest, RandomBlocksFullParity) {
  // Node-capacity sized blocks (Table 1: 51/102/204/409) with dense
  // overlap: hit order, hit set and comparison count must agree exactly.
  for (const size_t n : {51u, 102u, 204u, 409u}) {
    const std::vector<Rect> rects = testutil::RandomRects(n, n, 0.2);
    const RectBlock block = BlockOf(rects);
    const std::vector<Rect> queries = testutil::RandomRects(16, n + 1, 0.3);
    for (const Rect& query : queries) {
      for (const OverlapSubject subject :
           {OverlapSubject::kBlock, OverlapSubject::kQuery}) {
        const KernelRun ref = ReferenceOverlap(block, query, subject);
        ExpectSameRun(
            RunOverlap(GeomKernelMode::kScalar, block, query, subject), ref,
            "scalar");
        ExpectSameRun(
            RunOverlap(GeomKernelMode::kSimd, block, query, subject), ref,
            "simd");
      }
    }
  }
}

TEST_F(SimdKernelsTest, SubjectOrderChangesCountsNotHits) {
  // The early-exit order depends on the subject, so the two subjects may
  // charge different counts — but never different hit sets.
  const std::vector<Rect> rects = testutil::RandomRects(64, 99, 0.1);
  const RectBlock block = BlockOf(rects);
  const Rect query{0.2f, 0.2f, 0.6f, 0.6f};
  const KernelRun as_block =
      RunOverlap(GeomKernelMode::kSimd, block, query, OverlapSubject::kBlock);
  const KernelRun as_query =
      RunOverlap(GeomKernelMode::kSimd, block, query, OverlapSubject::kQuery);
  EXPECT_EQ(as_block.hits, as_query.hits);
}

TEST_F(SimdKernelsTest, WithinDistanceParity) {
  const std::vector<Rect> rects = testutil::RandomRects(103, 21, 0.05);
  const RectBlock block = BlockOf(rects);
  const std::vector<Rect> queries = testutil::RandomRects(8, 22, 0.05);
  for (const double epsilon : {0.0, 0.01, 0.1, 0.5}) {
    for (const Rect& query : queries) {
      // Reference: the scalar leaf test, element by element.
      KernelRun ref;
      {
        ComparisonCounter counter;
        for (uint32_t i = 0; i < rects.size(); ++i) {
          if (EvaluatePredicateCounted(JoinPredicate::kWithinDistance,
                                       epsilon, query, rects[i], &counter)) {
            ref.hits.push_back(i);
          }
        }
        ref.comparisons = counter.count();
      }
      for (const GeomKernelMode mode :
           {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
        SetGeomKernelMode(mode);
        KernelRun run;
        ComparisonCounter counter;
        CountedWithinDistanceHits(block, query, epsilon, &counter,
                                  &run.hits);
        run.comparisons = counter.count();
        ExpectSameRun(run, ref, GeomKernelModeName(mode));
      }
    }
  }
}

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

struct SweepRun {
  PairList pairs;
  uint64_t comparisons = 0;
};

// The fused node-pair sweep in both modes against the paper's scalar
// SortedIntersectionTest (geom/plane_sweep.h): same pairs in the same order
// (the order is the read schedule) and the same charge. `pairs` starts
// non-empty to check the kernel appends.
void ExpectSweepMatchesReference(std::vector<IndexedRect> rseq,
                                 std::vector<IndexedRect> sseq,
                                 const char* label) {
  SortByLowerX(&rseq);
  SortByLowerX(&sseq);
  SweepRun ref;
  {
    ComparisonCounter counter;
    ref.pairs = SortedIntersectionTestPairs(
        std::span<const IndexedRect>(rseq),
        std::span<const IndexedRect>(sseq), &counter);
    ref.comparisons = counter.count();
  }
  RectBlock rblock;
  RectBlock sblock;
  rblock.AssignIndexed(std::span<const IndexedRect>(rseq));
  sblock.AssignIndexed(std::span<const IndexedRect>(sseq));
  for (const GeomKernelMode mode :
       {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
    SetGeomKernelMode(mode);
    ComparisonCounter counter;
    PairList pairs = {{7, 7}};
    SortedIntersectionTestBlocks(rblock, sblock, &counter, &pairs);
    ASSERT_FALSE(pairs.empty());
    EXPECT_EQ(pairs.front(), std::make_pair(7u, 7u)) << label;
    pairs.erase(pairs.begin());
    EXPECT_EQ(pairs, ref.pairs) << label << " " << GeomKernelModeName(mode);
    EXPECT_EQ(counter.count(), ref.comparisons)
        << label << " " << GeomKernelModeName(mode);
  }
}

std::vector<IndexedRect> Indexed(const std::vector<Rect>& rects) {
  std::vector<IndexedRect> seq;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    seq.push_back(IndexedRect{rects[i], i});
  }
  return seq;
}

TEST_F(SimdKernelsTest, BlockSweepMatchesSortedIntersectionTest) {
  for (const size_t n : {1u, 5u, 51u, 100u, 204u}) {
    ExpectSweepMatchesReference(
        Indexed(testutil::RandomRects(n, 41 + n, 0.15)),
        Indexed(testutil::RandomRects(n + 3, 43 + n, 0.15)), "random");
  }
  ExpectSweepMatchesReference({}, Indexed(testutil::RandomRects(9, 5)),
                              "empty r");
}

TEST_F(SimdKernelsTest, FusedSweepScansAroundTheVectorCutoff) {
  // One rectangle t against a 40-element sequence whose xl values step by
  // 1/64. Without ties, t's scan of the sequence starts at position
  // `start` and overlaps `length` elements in x, so every start position
  // meets scans of 15 (scalar), 16 and 17 (vector stage) elements, ending
  // in a break or at the end of the sequence. With ties, the elements come
  // in pairs of equal xl and t.xl = start/64 equals a pair's xl at every
  // even start — the advance's `<` then lets that pair scan t first — and
  // the scan lengths land on either side of the cutoff. The y ranges cycle
  // through below / inside / above t's, so every y exit fires. Both
  // orientations run: t as R scanning S, and t as S scanning R.
  constexpr size_t kCount = 40;
  constexpr float kStep = 1.0f / 64;
  const float ylo[] = {0.0f, 0.4f, 0.8f};
  for (const bool ties : {false, true}) {
    std::vector<Rect> seq;
    for (size_t k = 0; k < kCount; ++k) {
      const float xl = static_cast<float>(ties ? k / 2 * 2 : k) * kStep;
      seq.push_back(Rect{xl, ylo[k % 3], xl + kStep / 2, ylo[k % 3] + 0.1f});
    }
    for (size_t start = 0; start <= kCount; ++start) {
      for (const size_t length : {15u, 16u, 17u}) {
        const float first_xl = static_cast<float>(start) * kStep;
        const float last_xl = static_cast<float>(start + length - 1) * kStep;
        const Rect t{ties ? first_xl : first_xl - kStep / 2, 0.3f,
                     last_xl + kStep / 2, 0.6f};
        const std::string label = std::string(ties ? "ties" : "distinct") +
                                  " start " + std::to_string(start) +
                                  " length " + std::to_string(length);
        const std::vector<IndexedRect> one = {IndexedRect{t, 99}};
        ExpectSweepMatchesReference(one, Indexed(seq), label.c_str());
        ExpectSweepMatchesReference(Indexed(seq), one, label.c_str());
      }
    }
  }
}

TEST_F(SimdKernelsTest, NanInputsBehaveIdentically) {
  // Ordered > is false for NaN in both scalar C++ and SSE cmpgt: a NaN
  // rectangle passes every early exit and "hits" in both modes — what
  // matters is that the two paths agree bit for bit.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<Rect> rects = testutil::RandomRects(11, 3);
  rects[2] = Rect{nan, 0, 1, 1};
  rects[7] = Rect{nan, nan, nan, nan};
  const RectBlock block = BlockOf(rects);
  const Rect query{0, 0, 1, 1};
  for (const OverlapSubject subject :
       {OverlapSubject::kBlock, OverlapSubject::kQuery}) {
    const KernelRun ref = ReferenceOverlap(block, query, subject);
    ExpectSameRun(RunOverlap(GeomKernelMode::kScalar, block, query, subject),
                  ref, "scalar nan");
    ExpectSameRun(RunOverlap(GeomKernelMode::kSimd, block, query, subject),
                  ref, "simd nan");
  }
}

TEST_F(SimdKernelsTest, BlockBuilders) {
  const std::vector<Rect> rects = testutil::RandomRects(10, 17);
  RectBlock block;
  block.AssignRects(std::span<const Rect>(rects), 0.0);
  ASSERT_EQ(block.size(), rects.size());
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_EQ(block.RectAt(i), rects[i]);
    EXPECT_EQ(block.index_at(i), i);
  }
  // Expansion bakes Rect::Expanded in.
  RectBlock expanded;
  expanded.AssignRects(std::span<const Rect>(rects), 0.25);
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_EQ(expanded.RectAt(i), rects[i].Expanded(0.25));
  }
}

// The marking kernel against its two-pass reference: CountedOverlapHits'
// positions and charge, then a gather of those positions' rectangles and
// index_at values. The output block holds other rectangles beforehand, and
// some rows are NaN, as in NanInputsBehaveIdentically.
TEST_F(SimdKernelsTest, MarkingMatchesHitsAndGather) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 20; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {51, 204, 409});
  for (const size_t n : sizes) {
    std::vector<IndexedRect> seq = Indexed(testutil::RandomRects(n, 300 + n,
                                                                 0.3));
    for (IndexedRect& r : seq) r.index = 1000 + 3 * r.index;  // not slots
    if (n > 2) seq[2].rect = Rect{nan, 0, 1, 1};
    if (n > 7) seq[7].rect = Rect{nan, nan, nan, nan};
    RectBlock block;
    block.AssignIndexed(std::span<const IndexedRect>(seq));
    const std::vector<Rect> queries = testutil::RandomRects(4, 700 + n, 0.5);
    for (const Rect& query : queries) {
      for (const OverlapSubject subject :
           {OverlapSubject::kBlock, OverlapSubject::kQuery}) {
        for (const GeomKernelMode mode :
             {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
          const std::string label = "n " + std::to_string(n) + " " +
                                    GeomKernelModeName(mode);
          const KernelRun ref = RunOverlap(mode, block, query, subject);
          RectBlock marked;
          marked.AssignRects(testutil::RandomRects(n / 2 + 3, 5), 0.0);
          ComparisonCounter counter;
          const size_t kept =
              CountedOverlapMark(block, query, subject, &counter, &marked);
          EXPECT_EQ(counter.count(), ref.comparisons) << label;
          ASSERT_EQ(kept, ref.hits.size()) << label;
          ASSERT_EQ(marked.size(), ref.hits.size()) << label;
          for (size_t k = 0; k < kept; ++k) {
            const Rect want = block.RectAt(ref.hits[k]);
            const Rect got = marked.RectAt(k);
            // Bitwise, so that NaN rows compare too.
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(Rect)), 0)
                << label << " position " << k;
            EXPECT_EQ(marked.index_at(k), block.index_at(ref.hits[k]))
                << label << " position " << k;
          }
        }
      }
    }
  }
}

// A sweep whose short scans alone stage more pairs than the kSimd stage
// holds, with vector-stage scans between them: 409 entries a side, narrow
// in x so that a scan stays under the 16-element cutoff and tall in y so
// that most scans hit, plus a few entries wide in x whose scans take the
// vector stage and stage hundreds of pairs each. Both orientations, both
// modes, against SortedIntersectionTestPairs.
TEST_F(SimdKernelsTest, StagedSweepFlushesInOrder) {
  constexpr size_t kCount = 409;
  const auto side = [](uint64_t seed, float offset) {
    Rng rng(seed);
    std::vector<Rect> rects;
    for (size_t k = 0; k < kCount; ++k) {
      const float xl = static_cast<float>(k) / kCount + offset;
      const float yl = static_cast<float>(rng.Uniform(0.0, 0.4));
      float xu = xl + 4.0f / kCount;
      if (k % 97 == 5) xu = xl + 0.5f;  // a long scan
      rects.push_back(
          Rect{xl, yl, xu, yl + static_cast<float>(rng.Uniform(0.2, 0.7))});
    }
    return rects;
  };
  const std::vector<IndexedRect> r = Indexed(side(11, 0.0f));
  const std::vector<IndexedRect> s = Indexed(side(12, 0.5f / kCount));
  ExpectSweepMatchesReference(r, s, "r scans s");
  ExpectSweepMatchesReference(s, r, "s scans r");
  // The stage must overflow many times over for the test to mean anything.
  ComparisonCounter counter;
  EXPECT_GT(SortedIntersectionTestPairs(std::span<const IndexedRect>(r),
                                        std::span<const IndexedRect>(s),
                                        &counter)
                .size(),
            4u * 256u);
}

}  // namespace
}  // namespace rsj
