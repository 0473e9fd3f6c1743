// Cross-algorithm invariants of the join engine — properties that must
// hold regardless of workload, connecting the counters of different
// algorithms to each other.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "exec/multiway_executor.h"
#include "exec/parallel_executor.h"
#include "geom/simd_kernels.h"
#include "io/io_scheduler.h"
#include "join/join_runner.h"
#include "join/refinement.h"
#include "shard/decluster.h"
#include "shard/sharded_join.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

constexpr JoinAlgorithm kAllAlgorithms[] = {
    JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
    JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
    JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5};

class JoinInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    r_ = new IndexedRelation(testutil::ClusteredRects(3000, 551), topt);
    s_ = new IndexedRelation(testutil::ClusteredRects(2800, 552), topt);
  }
  static void TearDownTestSuite() {
    delete r_;
    delete s_;
    r_ = nullptr;
    s_ = nullptr;
  }
  static IndexedRelation* r_;
  static IndexedRelation* s_;
};

IndexedRelation* JoinInvariantsTest::r_ = nullptr;
IndexedRelation* JoinInvariantsTest::s_ = nullptr;

TEST_F(JoinInvariantsTest, InfiniteBufferReadsEqualAcrossSchedules) {
  // With every page cached after first use, the read count is exactly the
  // number of distinct pages required — independent of the read schedule.
  constexpr uint64_t kInfinite = 1ull << 30;
  std::set<uint64_t> distinct_reads;
  for (const JoinAlgorithm alg :
       {JoinAlgorithm::kSJ3, JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5}) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    jopt.buffer_bytes = kInfinite;
    distinct_reads.insert(
        RunSpatialJoin(r_->tree(), s_->tree(), jopt).stats.disk_reads);
  }
  EXPECT_EQ(distinct_reads.size(), 1u)
      << "schedules must touch the same page set";
}

TEST_F(JoinInvariantsTest, RequiredPagesNeverExceedTreeSizes) {
  constexpr uint64_t kInfinite = 1ull << 30;
  const size_t total_pages = r_->tree().ComputeStats().TotalPages() +
                             s_->tree().ComputeStats().TotalPages();
  for (const JoinAlgorithm alg : kAllAlgorithms) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    jopt.buffer_bytes = kInfinite;
    const auto stats = RunSpatialJoin(r_->tree(), s_->tree(), jopt).stats;
    EXPECT_LE(stats.disk_reads, total_pages) << JoinAlgorithmName(alg);
  }
}

TEST_F(JoinInvariantsTest, ZeroBufferReadsAreWorstCase) {
  for (const JoinAlgorithm alg : kAllAlgorithms) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    jopt.buffer_bytes = 0;
    const uint64_t without = RunSpatialJoin(r_->tree(), s_->tree(), jopt)
                                 .stats.disk_reads;
    jopt.buffer_bytes = 1ull << 30;
    const uint64_t with = RunSpatialJoin(r_->tree(), s_->tree(), jopt)
                              .stats.disk_reads;
    EXPECT_GE(without, with) << JoinAlgorithmName(alg);
  }
}

TEST_F(JoinInvariantsTest, RestrictionNeverIncreasesJoinComparisons) {
  // SJ2's marking scan can only pay off or break even vs SJ1 on this
  // workload class (the paper's Table 3 claim).
  JoinOptions sj1;
  sj1.algorithm = JoinAlgorithm::kSJ1;
  JoinOptions sj2;
  sj2.algorithm = JoinAlgorithm::kSJ2;
  EXPECT_LE(RunSpatialJoin(r_->tree(), s_->tree(), sj2)
                .stats.join_comparisons.count(),
            RunSpatialJoin(r_->tree(), s_->tree(), sj1)
                .stats.join_comparisons.count());
}

TEST_F(JoinInvariantsTest, DeterministicCountersAcrossRuns) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 16 * 1024;
  const auto first = RunSpatialJoin(r_->tree(), s_->tree(), jopt).stats;
  const auto second = RunSpatialJoin(r_->tree(), s_->tree(), jopt).stats;
  EXPECT_EQ(first.disk_reads, second.disk_reads);
  EXPECT_EQ(first.buffer_hits, second.buffer_hits);
  EXPECT_EQ(first.join_comparisons.count(),
            second.join_comparisons.count());
  EXPECT_EQ(first.sort_comparisons.count(),
            second.sort_comparisons.count());
  EXPECT_EQ(first.pin_count, second.pin_count);
  EXPECT_EQ(first.output_pairs, second.output_pairs);
}

TEST_F(JoinInvariantsTest, SharedDecodesChargeTheirSortOnce) {
  // Two runs over one pool that holds both trees: the second run's pages
  // are all resident with their sorted decodes, so it reads nothing,
  // decodes nothing and charges no sort (§4.2 sorts a page once per read
  // from disk), and still joins the same pairs.
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 1ull << 30;
  BufferPool pool(BufferPool::Options{jopt.buffer_bytes, kPageSize1K});
  Statistics first;
  Statistics second;
  CountingSink first_pairs;
  CountingSink second_pairs;
  SpatialJoinEngine(r_->tree(), s_->tree(), jopt, &pool, &first)
      .Run(&first_pairs);
  SpatialJoinEngine(r_->tree(), s_->tree(), jopt, &pool, &second)
      .Run(&second_pairs);

  const Statistics alone = RunSpatialJoin(r_->tree(), s_->tree(), jopt).stats;
  EXPECT_GT(first.sort_comparisons.count(), 0u);
  EXPECT_EQ(first.sort_comparisons.count(), alone.sort_comparisons.count());
  EXPECT_EQ(first.node_decodes, alone.node_decodes);
  EXPECT_EQ(second.sort_comparisons.count(), 0u);
  EXPECT_EQ(second.node_decodes, 0u);
  EXPECT_EQ(second.disk_reads, 0u);
  EXPECT_EQ(second.node_cache_hits, first.node_decodes);
  EXPECT_EQ(second.join_comparisons.count(), first.join_comparisons.count());
  EXPECT_EQ(second_pairs.count(), first_pairs.count());
}

TEST_F(JoinInvariantsTest, ReadsPlusHitsInvariantAcrossBufferSizes) {
  // The engine issues the same page *requests* regardless of the buffer;
  // the buffer only shifts requests between misses and hits. (Holds for
  // non-pinning algorithms; pinning drains reorder requests.)
  for (const JoinAlgorithm alg :
       {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2, JoinAlgorithm::kSJ3}) {
    std::set<uint64_t> totals;
    for (const uint64_t buffer : {0ull, 8ull * 1024, 512ull * 1024}) {
      JoinOptions jopt;
      jopt.algorithm = alg;
      jopt.buffer_bytes = buffer;
      const auto stats = RunSpatialJoin(r_->tree(), s_->tree(), jopt).stats;
      totals.insert(stats.disk_reads + stats.buffer_hits);
    }
    EXPECT_EQ(totals.size(), 1u) << JoinAlgorithmName(alg);
  }
}

TEST_F(JoinInvariantsTest, SweepOutputIsPermutationOfNestedLoopOutput) {
  JoinOptions nested;
  nested.algorithm = JoinAlgorithm::kSJ2;
  JoinOptions sweep;
  sweep.algorithm = JoinAlgorithm::kSJ3;
  auto a = RunSpatialJoin(r_->tree(), s_->tree(), nested, true);
  auto b = RunSpatialJoin(r_->tree(), s_->tree(), sweep, true);
  EXPECT_EQ(testutil::Canonical(a.chunks),
            testutil::Canonical(b.chunks));
}

TEST_F(JoinInvariantsTest, OutputPairsMatchesEmittedCount) {
  for (const JoinAlgorithm alg : kAllAlgorithms) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    const auto result = RunSpatialJoin(r_->tree(), s_->tree(), jopt, true);
    EXPECT_EQ(result.stats.output_pairs, result.chunks.pair_count())
        << JoinAlgorithmName(alg);
  }
}

TEST_F(JoinInvariantsTest, JoinIsSymmetricUpToPairOrientation) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  auto forward = RunSpatialJoin(r_->tree(), s_->tree(), jopt, true);
  auto backward = RunSpatialJoin(s_->tree(), r_->tree(), jopt, true);
  ASSERT_EQ(forward.pair_count, backward.pair_count);
  auto swapped = backward.chunks.CopyPairs();
  for (auto& p : swapped) std::swap(p.first, p.second);
  EXPECT_EQ(testutil::Canonical(forward.chunks),
            testutil::Canonical(std::move(swapped)));
}

// ---------------------------------------------------------------------------
// Counter and emission-order pin.
//
// `simd_parity_test` compares the two kernel modes within one build, so a
// change that shifts both modes the same way passes it. This test pins the
// absolute values instead: for every algorithm, every height policy, both
// kernel-batched predicates and both kernel modes, the paper's counters and
// an FNV-1a digest of the result pairs in emission order (the order is the
// §4.3 read schedule) must equal the recorded row. The inputs use
// arithmetic only (no libm). The values were recorded on x86-64 before the
// filter kernels were fused to one call per node pair; a change that means
// to change the counters updates these rows and says so.

struct PinnedCounters {
  const char* name;
  uint64_t disk_reads;
  uint64_t join_comparisons;
  uint64_t sort_comparisons;
  uint64_t schedule_comparisons;
  uint64_t node_pairs;
  uint64_t window_queries;
  uint64_t output_pairs;
  uint64_t pairs_digest;
};

// name = input/policy/algorithm/predicate. "equal": two height-3 trees;
// "small_r" / "small_s": a height-1 tree against a height-3 one, as R and
// as S, so the §4.4 window queries run in both orientations and descend
// through a directory level. Height policies only act on unequal heights,
// so the equal pair runs under the default (b) alone.
constexpr PinnedCounters kPinnedCounters[] = {
    {"equal/b/SJ1/intersects", 194, 701864, 0, 0, 310, 0, 3460,
     0x8490adb93ea5b749ULL},
    {"equal/b/SJ1/within-distance", 212, 965737, 0, 0, 358, 0, 12979,
     0x6ce45ab443a3b79aULL},
    {"equal/b/SJ2/intersects", 194, 206722, 0, 0, 310, 0, 3460,
     0x8490adb93ea5b749ULL},
    {"equal/b/SJ2/within-distance", 212, 384334, 0, 0, 358, 0, 12979,
     0x6ce45ab443a3b79aULL},
    {"equal/b/SweepI/intersects", 186, 137633, 6543, 0, 310, 0, 3460,
     0xfcc463ab3d7b2861ULL},
    {"equal/b/SweepI/within-distance", 197, 331436, 6913, 0, 358, 0, 12979,
     0xe551999251d44f56ULL},
    {"equal/b/SJ3/intersects", 186, 120452, 6543, 0, 310, 0, 3460,
     0xfcc463ab3d7b2861ULL},
    {"equal/b/SJ3/within-distance", 197, 265437, 6913, 0, 358, 0, 12979,
     0xe551999251d44f56ULL},
    {"equal/b/SJ4/intersects", 190, 120452, 6396, 0, 310, 0, 3460,
     0x1478dd9269240ce5ULL},
    {"equal/b/SJ4/within-distance", 200, 265437, 6654, 0, 358, 0, 12979,
     0xa07c07edbaa6e16aULL},
    {"equal/b/SJ5/intersects", 206, 120452, 6972, 1670, 310, 0, 3460,
     0xd5203aeebf8cc2cdULL},
    {"equal/b/SJ5/within-distance", 220, 265437, 7477, 2050, 358, 0, 12979,
     0x83dd160bf66c9faaULL},
    {"small_r/a/SJ1/intersects", 56, 9618, 0, 0, 1, 49, 163,
     0xe53db27d92291dfcULL},
    {"small_r/a/SJ1/within-distance", 63, 21426, 0, 0, 1, 50, 389,
     0x787548f2314be963ULL},
    {"small_r/a/SJ2/intersects", 56, 9806, 0, 0, 1, 49, 163,
     0xe53db27d92291dfcULL},
    {"small_r/a/SJ2/within-distance", 63, 21614, 0, 0, 1, 50, 389,
     0x787548f2314be963ULL},
    {"small_r/a/SweepI/intersects", 56, 9530, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/a/SweepI/within-distance", 64, 21338, 2308, 0, 1, 50, 389,
     0xcb4121ec6db02f67ULL},
    {"small_r/a/SJ3/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/a/SJ3/within-distance", 64, 21526, 2308, 0, 1, 50, 389,
     0xcb4121ec6db02f67ULL},
    {"small_r/a/SJ4/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/a/SJ4/within-distance", 64, 21526, 2308, 0, 1, 50, 389,
     0xcb4121ec6db02f67ULL},
    {"small_r/a/SJ5/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/a/SJ5/within-distance", 64, 21526, 2308, 0, 1, 50, 389,
     0xcb4121ec6db02f67ULL},
    {"small_r/b/SJ1/intersects", 56, 9618, 0, 0, 1, 49, 163,
     0x4a180ecdb52f5ba8ULL},
    {"small_r/b/SJ1/within-distance", 63, 21426, 0, 0, 1, 50, 389,
     0x43e23dc19169747fULL},
    {"small_r/b/SJ2/intersects", 56, 9806, 0, 0, 1, 49, 163,
     0x4a180ecdb52f5ba8ULL},
    {"small_r/b/SJ2/within-distance", 63, 21614, 0, 0, 1, 50, 389,
     0x43e23dc19169747fULL},
    {"small_r/b/SweepI/intersects", 56, 9530, 2019, 0, 1, 49, 163,
     0x6ee59f8e02580080ULL},
    {"small_r/b/SweepI/within-distance", 63, 21338, 2263, 0, 1, 50, 389,
     0xf68cee6db2ec9babULL},
    {"small_r/b/SJ3/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0x6ee59f8e02580080ULL},
    {"small_r/b/SJ3/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xf68cee6db2ec9babULL},
    {"small_r/b/SJ4/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0x6ee59f8e02580080ULL},
    {"small_r/b/SJ4/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xf68cee6db2ec9babULL},
    {"small_r/b/SJ5/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0x6ee59f8e02580080ULL},
    {"small_r/b/SJ5/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xf68cee6db2ec9babULL},
    {"small_r/c/SJ1/intersects", 56, 9618, 0, 0, 1, 49, 163,
     0x690866da9ca6d108ULL},
    {"small_r/c/SJ1/within-distance", 63, 21426, 0, 0, 1, 50, 389,
     0x9eda4a3613e07643ULL},
    {"small_r/c/SJ2/intersects", 56, 9806, 0, 0, 1, 49, 163,
     0x690866da9ca6d108ULL},
    {"small_r/c/SJ2/within-distance", 63, 21614, 0, 0, 1, 50, 389,
     0x9eda4a3613e07643ULL},
    {"small_r/c/SweepI/intersects", 56, 9530, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/c/SweepI/within-distance", 63, 21338, 2263, 0, 1, 50, 389,
     0xc03cedcf592ea2fbULL},
    {"small_r/c/SJ3/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/c/SJ3/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xc03cedcf592ea2fbULL},
    {"small_r/c/SJ4/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/c/SJ4/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xc03cedcf592ea2fbULL},
    {"small_r/c/SJ5/intersects", 56, 9718, 2019, 0, 1, 49, 163,
     0xe19472e2d71af920ULL},
    {"small_r/c/SJ5/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xc03cedcf592ea2fbULL},
    {"small_s/a/SJ1/intersects", 56, 9471, 0, 0, 1, 49, 163,
     0x080e6c7b515460dcULL},
    {"small_s/a/SJ1/within-distance", 63, 21426, 0, 0, 1, 50, 389,
     0x22a9a5f83ccbc27bULL},
    {"small_s/a/SJ2/intersects", 56, 9659, 0, 0, 1, 49, 163,
     0x080e6c7b515460dcULL},
    {"small_s/a/SJ2/within-distance", 63, 21614, 0, 0, 1, 50, 389,
     0x22a9a5f83ccbc27bULL},
    {"small_s/a/SweepI/intersects", 56, 9383, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/a/SweepI/within-distance", 63, 21338, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/a/SJ3/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/a/SJ3/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/a/SJ4/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/a/SJ4/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/a/SJ5/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/a/SJ5/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/b/SJ1/intersects", 56, 9471, 0, 0, 1, 49, 163,
     0xeb618000a5e7e508ULL},
    {"small_s/b/SJ1/within-distance", 63, 21426, 0, 0, 1, 50, 389,
     0x805d57655ea0d907ULL},
    {"small_s/b/SJ2/intersects", 56, 9659, 0, 0, 1, 49, 163,
     0xeb618000a5e7e508ULL},
    {"small_s/b/SJ2/within-distance", 63, 21614, 0, 0, 1, 50, 389,
     0x805d57655ea0d907ULL},
    {"small_s/b/SweepI/intersects", 56, 9383, 2019, 0, 1, 49, 163,
     0x9b37f1734aff5530ULL},
    {"small_s/b/SweepI/within-distance", 63, 21338, 2263, 0, 1, 50, 389,
     0xaee55c3c8f15c827ULL},
    {"small_s/b/SJ3/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x9b37f1734aff5530ULL},
    {"small_s/b/SJ3/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xaee55c3c8f15c827ULL},
    {"small_s/b/SJ4/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x9b37f1734aff5530ULL},
    {"small_s/b/SJ4/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xaee55c3c8f15c827ULL},
    {"small_s/b/SJ5/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x9b37f1734aff5530ULL},
    {"small_s/b/SJ5/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0xaee55c3c8f15c827ULL},
    {"small_s/c/SJ1/intersects", 56, 9471, 0, 0, 1, 49, 163,
     0x4f501064eb547f90ULL},
    {"small_s/c/SJ1/within-distance", 63, 21426, 0, 0, 1, 50, 389,
     0x708f27cdb624948bULL},
    {"small_s/c/SJ2/intersects", 56, 9659, 0, 0, 1, 49, 163,
     0x4f501064eb547f90ULL},
    {"small_s/c/SJ2/within-distance", 63, 21614, 0, 0, 1, 50, 389,
     0x708f27cdb624948bULL},
    {"small_s/c/SweepI/intersects", 56, 9383, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/c/SweepI/within-distance", 63, 21338, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/c/SJ3/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/c/SJ3/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/c/SJ4/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/c/SJ4/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
    {"small_s/c/SJ5/intersects", 56, 9571, 2019, 0, 1, 49, 163,
     0x344e6547a4a09d90ULL},
    {"small_s/c/SJ5/within-distance", 63, 21526, 2263, 0, 1, 50, 389,
     0x5f265daa1cffaf67ULL},
};

uint64_t PairsDigest(const ResultChunkList& chunks) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (value >> shift) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& [r, s] : chunks.CopyPairs()) {
    mix(r);
    mix(s);
  }
  return hash;
}

std::string PinnedRow(const std::string& name, const JoinRunResult& run) {
  char row[320];
  std::snprintf(row, sizeof(row),
                "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
                "ULL},",
                name.c_str(), run.stats.disk_reads,
                run.stats.join_comparisons.count(),
                run.stats.sort_comparisons.count(),
                run.stats.schedule_comparisons.count(),
                run.stats.node_pairs, run.stats.window_queries,
                run.stats.output_pairs, PairsDigest(run.chunks));
  return row;
}

// Restores the process-wide kernel mode the test switches between.
class JoinCounterPinTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveGeomKernelMode(); }
  void TearDown() override { SetGeomKernelMode(saved_); }

 private:
  GeomKernelMode saved_ = GeomKernelMode::kScalar;
};

TEST_F(JoinCounterPinTest, CountersAndEmissionOrderMatchRecordedRuns) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation big_r(testutil::RandomRects(3000, 1601, 0.02), topt);
  const IndexedRelation big_s(testutil::RandomRects(2800, 1602, 0.02), topt);
  const IndexedRelation small(testutil::RandomRects(45, 1603, 0.05), topt);
  ASSERT_EQ(big_r.tree().height(), 3);
  ASSERT_EQ(big_s.tree().height(), 3);
  ASSERT_EQ(small.tree().height(), 1);

  struct Input {
    const char* name;
    const RTree* r;
    const RTree* s;
    std::vector<HeightPolicy> policies;
  };
  const std::vector<HeightPolicy> all_policies = {
      HeightPolicy::kPerPairQueries, HeightPolicy::kBatchedSubtree,
      HeightPolicy::kPinnedQueries};
  const Input inputs[] = {
      {"equal", &big_r.tree(), &big_s.tree(), {HeightPolicy::kBatchedSubtree}},
      {"small_r", &small.tree(), &big_r.tree(), all_policies},
      {"small_s", &big_r.tree(), &small.tree(), all_policies},
  };
  std::map<std::string, const PinnedCounters*> pinned;
  for (const PinnedCounters& row : kPinnedCounters) pinned[row.name] = &row;

  size_t cases = 0;
  for (const Input& input : inputs) {
    for (const HeightPolicy policy : input.policies) {
      for (const JoinAlgorithm algorithm : kAllAlgorithms) {
        for (const JoinPredicate predicate :
             {JoinPredicate::kIntersects, JoinPredicate::kWithinDistance}) {
          const std::string name =
              std::string(input.name) + "/" + HeightPolicyName(policy) + "/" +
              JoinAlgorithmName(algorithm) + "/" + JoinPredicateName(predicate);
          ++cases;
          JoinOptions jopt;
          jopt.algorithm = algorithm;
          jopt.height_policy = policy;
          jopt.predicate = predicate;
          jopt.epsilon =
              predicate == JoinPredicate::kWithinDistance ? 0.01 : 0.0;
          jopt.buffer_bytes = 16 * 1024;
          const auto it = pinned.find(name);
          ASSERT_NE(it, pinned.end())
              << "no recorded row; actual:\n"
              << PinnedRow(name, RunSpatialJoin(*input.r, *input.s, jopt,
                                                /*collect_pairs=*/true));
          const PinnedCounters& want = *it->second;
          for (const GeomKernelMode mode :
               {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
            SetGeomKernelMode(mode);
            const JoinRunResult run = RunSpatialJoin(
                *input.r, *input.s, jopt, /*collect_pairs=*/true);
            const std::string actual =
                std::string(GeomKernelModeName(mode)) + " " +
                PinnedRow(name, run);
            EXPECT_EQ(run.stats.disk_reads, want.disk_reads) << actual;
            EXPECT_EQ(run.stats.join_comparisons.count(),
                      want.join_comparisons)
                << actual;
            EXPECT_EQ(run.stats.sort_comparisons.count(),
                      want.sort_comparisons)
                << actual;
            EXPECT_EQ(run.stats.schedule_comparisons.count(),
                      want.schedule_comparisons)
                << actual;
            EXPECT_EQ(run.stats.node_pairs, want.node_pairs) << actual;
            EXPECT_EQ(run.stats.window_queries, want.window_queries)
                << actual;
            EXPECT_EQ(run.stats.output_pairs, want.output_pairs) << actual;
            EXPECT_EQ(PairsDigest(run.chunks), want.pairs_digest) << actual;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, std::size(kPinnedCounters)) << "stale recorded rows";
}

// ---------------------------------------------------------------------------
// Executor-path pin.
//
// The rows above pin the traversal; these pin the executor shells around
// it on their deterministic paths: the sequential join on a modeled disk
// (the paper experiment's path), the same join prefetching its read
// schedules over 2 and 4 disks, the one-thread streaming ID-join with a
// spilling filter step, the parallel executor on a leaf root (its
// degenerate plan runs as one partition) on an owned scheduler, and the
// parallel executor at one thread without one. Each row holds the result
// count, the read, decode, write and spill counters and the modeled
// micros. Same inputs as above, arithmetic only; the rows were recorded
// on x86-64 and change only in a change that means to change these
// counters. A prefetching row runs kPrefetchRepeats times: the scheduler
// services its async reads in call order, so every repeat must give the
// recorded modeled time.

struct PinnedPath {
  const char* name;
  uint64_t pairs;
  uint64_t disk_reads;
  uint64_t node_decodes;
  uint64_t disk_writes;
  uint64_t chunks_spilled;
  uint64_t modeled_micros;
};

constexpr PinnedPath kPinnedPaths[] = {
    {"with_io/SJ4", 3460, 190, 183, 0, 0, 3785000},
    {"with_io/SJ4/prefetch/2_disks", 3460, 284, 210, 0, 0, 4055000},
    {"with_io/SJ4/prefetch/4_disks", 3460, 284, 210, 0, 0, 3250000},
    {"id_join_streaming/1_thread", 1268, 297, 183, 145, 145, 11285000},
    {"parallel/4_threads/leaf_root", 163, 56, 56, 0, 0, 1120000},
    {"parallel/1_thread", 3460, 190, 183, 0, 0, 0},
};

constexpr int kPrefetchRepeats = 5;

struct PathRun {
  uint64_t pairs = 0;
  Statistics stats;
  uint64_t modeled_micros = 0;
};

std::string PathRow(const std::string& name, const PathRun& run) {
  char row[256];
  std::snprintf(row, sizeof(row),
                "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 "},",
                name.c_str(), run.pairs, run.stats.disk_reads,
                run.stats.node_decodes, run.stats.disk_writes,
                run.stats.result_chunks_spilled, run.modeled_micros);
  return row;
}

std::unique_ptr<IoScheduler> DiskArray(unsigned disks) {
  IoScheduler::Options options;
  options.disks.disk_count = disks;
  return std::make_unique<IoScheduler>(options);
}

// Polylines without libm: each rectangle becomes one of its diagonals
// (alternating by id), so the exact test rejects some MBR candidates.
Dataset DiagonalDataset(const std::vector<Rect>& rects) {
  Dataset data;
  for (uint32_t id = 0; id < rects.size(); ++id) {
    const Rect& m = rects[id];
    SpatialObject object;
    object.id = id;
    object.mbr = m;
    object.chain = id % 2 == 0
                       ? std::vector<Point>{{m.xl, m.yl}, {m.xu, m.yu}}
                       : std::vector<Point>{{m.xl, m.yu}, {m.xu, m.yl}};
    data.objects.push_back(std::move(object));
  }
  return data;
}

TEST_F(JoinCounterPinTest, ExecutorPathsMatchRecordedRuns) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<Rect> r_rects = testutil::RandomRects(3000, 1601, 0.02);
  const std::vector<Rect> s_rects = testutil::RandomRects(2800, 1602, 0.02);
  const IndexedRelation big_r(r_rects, topt);
  const IndexedRelation big_s(s_rects, topt);
  const IndexedRelation small(testutil::RandomRects(45, 1603, 0.05), topt);
  ASSERT_EQ(small.tree().height(), 1);  // a leaf root
  const Dataset r_data = DiagonalDataset(r_rects);
  const Dataset s_data = DiagonalDataset(s_rects);

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 16 * 1024;

  const auto with_io = [&](unsigned disks, bool prefetch) {
    return [&, disks, prefetch] {
      const auto io = DiskArray(disks);
      PathRun run;
      const JoinRunResult joined = RunSpatialJoinWithIo(
          big_r.tree(), big_s.tree(), jopt, io.get(), prefetch,
          /*prefetch_ahead=*/32, /*collect_pairs=*/true, &run.modeled_micros);
      run.pairs = joined.pair_count;
      run.stats = joined.stats;
      return run;
    };
  };
  const std::map<std::string, std::function<PathRun()>> paths = {
      {"with_io/SJ4", with_io(1, /*prefetch=*/false)},
      {"with_io/SJ4/prefetch/2_disks", with_io(2, /*prefetch=*/true)},
      {"with_io/SJ4/prefetch/4_disks", with_io(4, /*prefetch=*/true)},
      {"id_join_streaming/1_thread",
       [&] {
         const auto io = DiskArray(1);
         StreamingRefineOptions ropts;
         ropts.chunk_capacity = 32;
         ropts.filter_budget_chunks = 2;
         ropts.refine_budget_chunks = 2;
         ropts.num_threads = 1;
         ropts.io = io.get();
         ropts.collect_result_pairs = true;
         const StreamingIdJoinResult joined = RunIdSpatialJoinStreaming(
             big_r.tree(), r_data, big_s.tree(), s_data, jopt, ropts);
         PathRun run;
         run.pairs = joined.result_pairs;
         run.stats = joined.stats;
         run.modeled_micros = io->SynchronizeClocks();
         return run;
       }},
      {"parallel/4_threads/leaf_root",
       [&] {
         const auto io = DiskArray(1);
         ParallelExecutorOptions exec;
         exec.num_threads = 4;
         exec.collect_pairs = true;
         exec.io_scheduler = io.get();
         const ParallelJoinResult joined =
             RunParallelSpatialJoin(big_r.tree(), small.tree(), jopt, exec);
         return PathRun{joined.pair_count, joined.total_stats,
                        joined.modeled_elapsed_micros};
       }},
      {"parallel/1_thread",
       [&] {
         ParallelExecutorOptions exec;
         exec.num_threads = 1;
         exec.collect_pairs = true;
         const ParallelJoinResult joined =
             RunParallelSpatialJoin(big_r.tree(), big_s.tree(), jopt, exec);
         // The one-thread executor reads exactly like the sequential join.
         const JoinRunResult sequential = RunSpatialJoin(
             big_r.tree(), big_s.tree(), jopt, /*collect_pairs=*/true);
         EXPECT_EQ(joined.pair_count, sequential.pair_count);
         EXPECT_EQ(joined.total_stats.disk_reads, sequential.stats.disk_reads);
         EXPECT_EQ(joined.total_stats.node_decodes,
                   sequential.stats.node_decodes);
         EXPECT_EQ(joined.total_stats.join_comparisons.count(),
                   sequential.stats.join_comparisons.count());
         return PathRun{joined.pair_count, joined.total_stats,
                        joined.modeled_elapsed_micros};
       }},
  };
  ASSERT_EQ(paths.size(), std::size(kPinnedPaths)) << "stale recorded rows";

  for (const PinnedPath& want : kPinnedPaths) {
    const auto it = paths.find(want.name);
    ASSERT_NE(it, paths.end()) << want.name;
    const std::string_view name = want.name;
    const int runs =
        name.find("/prefetch/") != name.npos ? kPrefetchRepeats : 1;
    for (const GeomKernelMode mode :
         {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
      SetGeomKernelMode(mode);
      for (int i = 0; i < runs; ++i) {
        const PathRun run = it->second();
        const std::string actual = std::string(GeomKernelModeName(mode)) +
                                   " run " + std::to_string(i) + " " +
                                   PathRow(want.name, run);
        EXPECT_EQ(run.pairs, want.pairs) << actual;
        EXPECT_EQ(run.stats.disk_reads, want.disk_reads) << actual;
        EXPECT_EQ(run.stats.node_decodes, want.node_decodes) << actual;
        EXPECT_EQ(run.stats.disk_writes, want.disk_writes) << actual;
        EXPECT_EQ(run.stats.result_chunks_spilled, want.chunks_spilled)
            << actual;
        EXPECT_EQ(run.modeled_micros, want.modeled_micros) << actual;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chain pin.
//
// RunChainSpatialJoin's counters on a fixed four-relation fixture
// (RandomRects seeds 1601, 1602, 1604 and 1605, 1 KiB pages, a 16 KiB
// buffer; the first two are the pairwise pin's R and S, so the first
// phase's pairs are its rows' output): a 3-chain and a 4-chain with
// intersects and a 3-chain within ε = 0.01. Each row
// holds the tuples, window_queries, join and sort comparisons, disk_reads
// and node_decodes. The run is the chain executor's one-thread run (one
// partition, each staged chunk of 1,024 pairs probed depth-first through
// the later phases over one LRU), and every kernel charges the same counts
// in both modes, so one row serves both. The rows were recorded on x86-64
// when the one-thread chain became that run; a change to the probe or the
// executor that means to move these counters updates the rows and says
// so.

struct PinnedChain {
  const char* name;
  uint64_t tuples;
  uint64_t window_queries;
  uint64_t join_comparisons;
  uint64_t sort_comparisons;
  uint64_t disk_reads;
  uint64_t node_decodes;
};

constexpr PinnedChain kPinnedChains[] = {
    {"3_chain/intersects", 4670, 3460, 311335, 50537, 315, 307},
    {"4_chain/intersects", 5374, 8130, 514412, 107795, 451, 443},
    {"3_chain/within-distance", 55369, 12979, 1625728, 168632, 454, 441},
};

std::string ChainRow(const std::string& name, const MultiwayJoinResult& run) {
  char row[256];
  std::snprintf(row, sizeof(row),
                "{\"%s\", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 "},",
                name.c_str(), run.tuple_count, run.stats.window_queries,
                run.stats.join_comparisons.count(),
                run.stats.sort_comparisons.count(), run.stats.disk_reads,
                run.stats.node_decodes);
  return row;
}

class ChainCounterPinTest : public JoinCounterPinTest {};

TEST_F(ChainCounterPinTest, SequentialChainMatchesRecordedRuns) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<std::vector<Rect>> rects = {
      testutil::RandomRects(3000, 1601, 0.02),
      testutil::RandomRects(2800, 1602, 0.02),
      testutil::RandomRects(2600, 1604, 0.02),
      testutil::RandomRects(2400, 1605, 0.02),
  };
  std::vector<std::unique_ptr<IndexedRelation>> relations;
  for (const std::vector<Rect>& r : rects) {
    relations.push_back(std::make_unique<IndexedRelation>(r, topt));
  }
  const auto chain = [&](size_t n) {
    std::vector<JoinRelation> out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back({&relations[i]->tree(), &rects[i]});
    }
    return out;
  };
  struct Case {
    size_t length;
    JoinPredicate predicate;
    double epsilon;
  };
  const std::map<std::string, Case> cases = {
      {"3_chain/intersects", {3, JoinPredicate::kIntersects, 0.0}},
      {"4_chain/intersects", {4, JoinPredicate::kIntersects, 0.0}},
      {"3_chain/within-distance", {3, JoinPredicate::kWithinDistance, 0.01}},
  };
  ASSERT_EQ(cases.size(), std::size(kPinnedChains)) << "stale recorded rows";

  for (const PinnedChain& want : kPinnedChains) {
    const auto it = cases.find(want.name);
    ASSERT_NE(it, cases.end()) << want.name;
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    jopt.predicate = it->second.predicate;
    jopt.epsilon = it->second.epsilon;
    jopt.buffer_bytes = 16 * 1024;
    for (const GeomKernelMode mode :
         {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
      SetGeomKernelMode(mode);
      const MultiwayJoinResult run =
          RunChainSpatialJoin(chain(it->second.length), jopt);
      const std::string actual = std::string(GeomKernelModeName(mode)) +
                                 " " + ChainRow(want.name, run);
      EXPECT_EQ(run.tuple_count, want.tuples) << actual;
      EXPECT_EQ(run.stats.window_queries, want.window_queries) << actual;
      EXPECT_EQ(run.stats.join_comparisons.count(), want.join_comparisons)
          << actual;
      EXPECT_EQ(run.stats.sort_comparisons.count(), want.sort_comparisons)
          << actual;
      EXPECT_EQ(run.stats.disk_reads, want.disk_reads) << actual;
      EXPECT_EQ(run.stats.node_decodes, want.node_decodes) << actual;
    }
  }
}

// ---------------------------------------------------------------------------
// Shard pin.
//
// The sharded join's counters on the pairwise pin's fixture (RandomRects
// seeds 1601 and 1602, 1 KiB pages, a 16 KiB buffer per shard), declustered
// into K = 4 shards over 16 × 16 tiles and STR-packed at the default fill:
// forwarded and raw pairs, disk_reads, node_decodes, join and sort
// comparisons and the max modeled micros over the shards' private 1-disk
// arrays. At one thread each shard pair is one partition over a private
// buffer, so the counters repeat exactly, and every kernel charges the
// same counts in both modes, so one row serves both. The row pins the STR
// shard trees (their node order sets the sort on read) together with the
// join over them; a change that means to move these counters updates the
// row and says so.

struct PinnedShard {
  uint64_t forwarded_pairs;
  uint64_t raw_pairs;
  uint64_t disk_reads;
  uint64_t node_decodes;
  uint64_t join_comparisons;
  uint64_t sort_comparisons;
  uint64_t modeled_max_micros;
};

constexpr PinnedShard kPinnedShard = {3460, 3504, 217, 212, 122558, 6171,
                                      1060000};

std::string ShardRow(const ShardedJoinResult& run) {
  char row[256];
  std::snprintf(row, sizeof(row),
                "{%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "};",
                run.pair_count, run.raw_pairs, run.stats.disk_reads,
                run.stats.node_decodes, run.stats.join_comparisons.count(),
                run.stats.sort_comparisons.count(),
                run.modeled_elapsed_micros);
  return row;
}

class ShardCounterPinTest : public JoinCounterPinTest {};

TEST_F(ShardCounterPinTest, OneThreadShardJoinMatchesRecordedRun) {
  const std::vector<Rect> r_rects = testutil::RandomRects(3000, 1601, 0.02);
  const std::vector<Rect> s_rects = testutil::RandomRects(2800, 1602, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 16 * 1024;

  const Declustering decl = Declustering::Build(
      r_rects, s_rects, DeclusterOptions{/*num_shards=*/4,
                                         /*tiles_per_side=*/16});
  ShardBuildOptions build;
  build.tree = topt;
  const ShardedDataset r_shards(&decl, r_rects, build);
  const ShardedDataset s_shards(&decl, s_rects, build);

  const IndexedRelation r(r_rects, topt);
  const IndexedRelation s(s_rects, topt);
  const auto expected = testutil::Canonical(
      RunSpatialJoin(r.tree(), s.tree(), jopt, /*collect_pairs=*/true).chunks);

  ShardedJoinOptions options;
  options.join = jopt;
  options.exec.num_threads = 1;
  options.exec.collect_pairs = true;
  options.disks_per_shard = 1;
  const PinnedShard& want = kPinnedShard;
  for (const GeomKernelMode mode :
       {GeomKernelMode::kScalar, GeomKernelMode::kSimd}) {
    SetGeomKernelMode(mode);
    const ShardedJoinResult run =
        RunShardedSpatialJoin(r_shards, s_shards, options);
    const std::string actual =
        std::string(GeomKernelModeName(mode)) + " " + ShardRow(run);
    EXPECT_EQ(testutil::Canonical(run.chunks), expected) << actual;
    EXPECT_EQ(run.pair_count, want.forwarded_pairs) << actual;
    EXPECT_EQ(run.raw_pairs, want.raw_pairs) << actual;
    EXPECT_EQ(run.stats.disk_reads, want.disk_reads) << actual;
    EXPECT_EQ(run.stats.node_decodes, want.node_decodes) << actual;
    EXPECT_EQ(run.stats.join_comparisons.count(), want.join_comparisons)
        << actual;
    EXPECT_EQ(run.stats.sort_comparisons.count(), want.sort_comparisons)
        << actual;
    EXPECT_EQ(run.modeled_elapsed_micros, want.modeled_max_micros) << actual;
  }
}

}  // namespace
}  // namespace rsj
