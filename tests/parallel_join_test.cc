// Tests for the parallel spatial join: exact result equality with the
// brute-force oracle across thread counts, work distribution sanity, and
// degenerate shapes.

#include "exec/parallel_executor.h"

#include <gtest/gtest.h>

#include "join/join_runner.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

ParallelExecutorOptions Threads(unsigned num_threads,
                                bool collect_pairs = false) {
  ParallelExecutorOptions exec;
  exec.num_threads = num_threads;
  exec.collect_pairs = collect_pairs;
  return exec;
}

class ParallelJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rects_r_ = new std::vector<Rect>(testutil::ClusteredRects(4000, 911));
    rects_s_ = new std::vector<Rect>(testutil::ClusteredRects(3600, 912));
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    r_ = new IndexedRelation(*rects_r_, topt);
    s_ = new IndexedRelation(*rects_s_, topt);
  }
  static void TearDownTestSuite() {
    delete r_;
    delete s_;
    delete rects_r_;
    delete rects_s_;
    r_ = nullptr;
    s_ = nullptr;
    rects_r_ = nullptr;
    rects_s_ = nullptr;
  }

  static std::vector<Rect>* rects_r_;
  static std::vector<Rect>* rects_s_;
  static IndexedRelation* r_;
  static IndexedRelation* s_;
};

std::vector<Rect>* ParallelJoinTest::rects_r_ = nullptr;
std::vector<Rect>* ParallelJoinTest::rects_s_ = nullptr;
IndexedRelation* ParallelJoinTest::r_ = nullptr;
IndexedRelation* ParallelJoinTest::s_ = nullptr;

TEST_F(ParallelJoinTest, MatchesOracleAcrossThreadCounts) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 32 * 1024;
  const auto expected = testutil::PairOracle(*rects_r_, *rects_s_, jopt);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u, 64u}) {
    auto parallel = RunParallelSpatialJoin(
        r_->tree(), s_->tree(), jopt, Threads(threads, /*collect_pairs=*/true));
    EXPECT_EQ(parallel.pair_count, expected.size()) << threads << " threads";
    EXPECT_EQ(testutil::Canonical(parallel.chunks), expected)
        << threads << " threads";
  }
}

TEST_F(ParallelJoinTest, WorkIsActuallyDistributed) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const auto result =
      RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, Threads(4));
  ASSERT_GE(result.worker_stats.size(), 2u);
  // The depth-adaptive partitioner must produce enough tasks for every
  // worker, and stealing guarantees each worker executes at least one.
  EXPECT_GE(result.task_count, result.worker_stats.size());
  ASSERT_EQ(result.worker_task_counts.size(), result.worker_stats.size());
  uint64_t executed = 0;
  for (size_t w = 0; w < result.worker_task_counts.size(); ++w) {
    EXPECT_GT(result.worker_task_counts[w], 0u) << "worker " << w;
    executed += result.worker_task_counts[w];
  }
  EXPECT_EQ(executed, result.task_count);
  // Aggregate statistics cover all workers.
  EXPECT_EQ(result.total_stats.output_pairs, result.pair_count);
  uint64_t summed = 0;
  for (const Statistics& st : result.worker_stats) {
    summed += st.disk_reads;
  }
  EXPECT_LE(summed, result.total_stats.disk_reads);  // + coordinator reads
}

TEST_F(ParallelJoinTest, AllAlgorithmsParallelize) {
  for (const JoinAlgorithm alg :
       {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ3, JoinAlgorithm::kSJ5}) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    const auto sequential = RunSpatialJoin(r_->tree(), s_->tree(), jopt);
    const auto parallel =
        RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, Threads(4));
    EXPECT_EQ(parallel.pair_count, sequential.pair_count)
        << JoinAlgorithmName(alg);
  }
}

TEST(ParallelJoinEdgeTest, LeafRootFallsBackToSequential) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation tiny(testutil::RandomRects(5, 913, 0.3), topt);
  IndexedRelation big(testutil::ClusteredRects(2000, 914), topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const auto sequential = RunSpatialJoin(tiny.tree(), big.tree(), jopt, true);
  auto parallel = RunParallelSpatialJoin(
      tiny.tree(), big.tree(), jopt, Threads(8, /*collect_pairs=*/true));
  EXPECT_EQ(parallel.pair_count, sequential.pair_count);
  EXPECT_EQ(testutil::Canonical(parallel.chunks),
            testutil::Canonical(sequential.chunks));
}

TEST(ParallelJoinEdgeTest, EmptyTrees) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation empty(std::vector<Rect>{}, topt);
  IndexedRelation other(testutil::RandomRects(100, 915), topt);
  JoinOptions jopt;
  EXPECT_EQ(RunParallelSpatialJoin(empty.tree(), other.tree(), jopt,
                                   Threads(4))
                .pair_count,
            0u);
}

TEST(ParallelJoinEdgeTest, DistanceJoinParallelizes) {
  const auto rects_r = testutil::ClusteredRects(2500, 916);
  const auto rects_s = testutil::ClusteredRects(2500, 917);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.predicate = JoinPredicate::kWithinDistance;
  jopt.epsilon = 0.01;
  const auto sequential = RunSpatialJoin(r.tree(), s.tree(), jopt, true);
  auto parallel =
      RunParallelSpatialJoin(r.tree(), s.tree(), jopt, Threads(6, true));
  EXPECT_EQ(testutil::Canonical(parallel.chunks),
            testutil::Canonical(sequential.chunks));
}

}  // namespace
}  // namespace rsj
