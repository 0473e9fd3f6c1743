// Tests for the parallel multi-way chain executor: exact tuple-multiset
// equivalence with the sequential chain join across chain lengths, thread
// counts and predicates, the decodes shared through the pool's frames, the
// per-worker frontier ceiling (frontier_peak_tuples), and that every probe
// runs on the context's task pool.

#include "exec/multiway_executor.h"

#include <algorithm>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/task_pool.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// A 4-relation fixture; 3-relation chains use a prefix.
class MultiwayExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    rects_ = new std::vector<std::vector<Rect>>{
        testutil::ClusteredRects(500, 971, 5, 0.02),
        testutil::ClusteredRects(450, 972, 5, 0.02),
        testutil::ClusteredRects(400, 973, 5, 0.02),
        testutil::ClusteredRects(350, 974, 5, 0.02),
    };
    relations_ = new std::vector<IndexedRelation*>;
    for (const auto& rects : *rects_) {
      relations_->push_back(new IndexedRelation(rects, topt));
    }
  }
  static void TearDownTestSuite() {
    for (IndexedRelation* rel : *relations_) delete rel;
    delete relations_;
    delete rects_;
    relations_ = nullptr;
    rects_ = nullptr;
  }

  static std::vector<JoinRelation> Chain(size_t n) {
    std::vector<JoinRelation> chain;
    for (size_t i = 0; i < n; ++i) {
      chain.push_back({&(*relations_)[i]->tree(), &(*rects_)[i]});
    }
    return chain;
  }

  static std::vector<std::vector<Rect>>* rects_;
  static std::vector<IndexedRelation*>* relations_;
};

std::vector<std::vector<Rect>>* MultiwayExecTest::rects_ = nullptr;
std::vector<IndexedRelation*>* MultiwayExecTest::relations_ = nullptr;

TEST_F(MultiwayExecTest, MatchesSequentialAcrossThreadsAndPredicates) {
  for (const size_t chain_len : {size_t{3}, size_t{4}}) {
    const auto chain = Chain(chain_len);
    for (const JoinPredicate predicate :
         {JoinPredicate::kIntersects, JoinPredicate::kWithinDistance}) {
      JoinOptions jopt;
      jopt.algorithm = JoinAlgorithm::kSJ4;
      jopt.predicate = predicate;
      jopt.epsilon = predicate == JoinPredicate::kWithinDistance ? 0.01 : 0.0;
      auto sequential = RunChainSpatialJoin(chain, jopt, true);
      std::sort(sequential.tuples.begin(), sequential.tuples.end());
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        ParallelExecutorOptions exec;
        exec.num_threads = threads;
        auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec, true);
        EXPECT_EQ(parallel.tuple_count, sequential.tuple_count)
            << "chain=" << chain_len << " threads=" << threads << " "
            << JoinPredicateName(predicate);
        std::sort(parallel.tuples.begin(), parallel.tuples.end());
        EXPECT_EQ(parallel.tuples, sequential.tuples)
            << "chain=" << chain_len << " threads=" << threads << " "
            << JoinPredicateName(predicate);
      }
    }
  }
}

TEST_F(MultiwayExecTest, ChainFrontierIsBoundedPerWorker) {
  // Each worker holds its staged pairwise chunk plus at most one full
  // stage per intermediate phase, so the gauge stays at or below
  // num_threads × (chain_len - 2) × chunk_capacity, whatever one window
  // hits, and strictly below the sequential chain's whole largest frontier.
  for (const size_t chain_len : {size_t{3}, size_t{4}}) {
    const auto chain = Chain(chain_len);
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    ParallelExecutorOptions exec;
    exec.num_threads = 4;
    exec.chunk_capacity = 8;
    auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec, true);
    const auto sequential = RunChainSpatialJoin(chain, jopt, true);
    EXPECT_EQ(parallel.tuple_count, sequential.tuple_count)
        << "chain=" << chain_len;

    const uint64_t ceiling =
        exec.num_threads * (chain_len - 2) * exec.chunk_capacity;
    const uint64_t peak = parallel.total_stats.frontier_peak_tuples;
    EXPECT_GT(peak, 0u) << "chain=" << chain_len;
    EXPECT_LE(peak, ceiling) << "chain=" << chain_len;
    EXPECT_LT(peak, sequential.stats.frontier_peak_tuples)
        << "chain=" << chain_len;
  }
}

TEST(MultiwayExecDenseTest, FullIntermediateStagesAreProbedAndBounded) {
  // A 4-chain dense enough that an intermediate stage fills many times per
  // staged chunk: each full stage is probed at once, so the tuples and the
  // window queries equal the sequential chain's and the gauge stays within
  // num_threads × 2 × chunk_capacity.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<std::vector<Rect>> rects = {
      testutil::RandomRects(3000, 1601, 0.02),
      testutil::RandomRects(2800, 1602, 0.02),
      testutil::RandomRects(2600, 1604, 0.02),
      testutil::RandomRects(2400, 1605, 0.02),
  };
  std::vector<std::unique_ptr<IndexedRelation>> relations;
  std::vector<JoinRelation> chain;
  for (const std::vector<Rect>& r : rects) {
    relations.push_back(std::make_unique<IndexedRelation>(r, topt));
    chain.push_back({&relations.back()->tree(), &r});
  }
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  auto sequential = RunChainSpatialJoin(chain, jopt, true);
  std::sort(sequential.tuples.begin(), sequential.tuples.end());
  ASSERT_GT(sequential.tuple_count, 16 * 8u);
  for (const unsigned threads : {2u, 4u}) {
    ParallelExecutorOptions exec;
    exec.num_threads = threads;
    exec.chunk_capacity = 8;
    auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec, true);
    std::sort(parallel.tuples.begin(), parallel.tuples.end());
    EXPECT_EQ(parallel.tuples, sequential.tuples) << "threads=" << threads;
    EXPECT_EQ(parallel.total_stats.window_queries,
              sequential.stats.window_queries)
        << "threads=" << threads;
    const uint64_t peak = parallel.total_stats.frontier_peak_tuples;
    EXPECT_GT(peak, 0u) << "threads=" << threads;
    EXPECT_LE(peak, threads * 2 * exec.chunk_capacity)
        << "threads=" << threads;
  }
}

TEST_F(MultiwayExecTest, ProbesRunOnTheContextsTaskPool) {
  // A borrowed context on a zero-thread task pool, which runs every task
  // on the calling thread: every probe_chunk span must carry this
  // thread's tid, so no probe ran on a thread of its own.
  TraceRecorder tracer(TraceOptions{.sample_period = 1});
  { TraceSpan marker(&tracer, "test", "marker"); }
  BufferPool pool(
      BufferPool::Options{128 * 1024, kPageSize1K, kSharedPoolShards});
  TaskPool tasks(TaskPool::Options{0});
  ExecContext::Borrowed shared;
  shared.pool = &pool;
  shared.tasks = &tasks;
  shared.tracer = &tracer;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  ExecContext ctx(shared, exec);

  const auto chain = Chain(4);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const auto result =
      RunParallelChainSpatialJoin(chain, jopt, exec, ctx, false);
  EXPECT_EQ(result.tuple_count, RunChainSpatialJoin(chain, jopt).tuple_count);

  const std::vector<TraceEvent> events = tracer.Snapshot();
  uint32_t test_tid = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "marker") test_tid = e.tid;
  }
  ASSERT_NE(test_tid, 0u);
  size_t probe_chunks = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) != "probe_chunk") continue;
    ++probe_chunks;
    EXPECT_EQ(e.tid, test_tid);
  }
  EXPECT_GT(probe_chunks, 0u);
}

TEST_F(MultiwayExecTest, RejectsZeroChunkCapacity) {
  const auto chain = Chain(3);
  JoinOptions jopt;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.chunk_capacity = 0;
  EXPECT_DEATH(RunParallelChainSpatialJoin(chain, jopt, exec),
               "chunk_capacity >= 1");
}

TEST_F(MultiwayExecTest, ZeroPartitionMultiplierStillProbesEveryTuple) {
  // A zero multiplier must not zero the partitioner's task target.
  const auto chain = Chain(3);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  auto sequential = RunChainSpatialJoin(chain, jopt, false);
  ParallelExecutorOptions exec;
  exec.num_threads = 2;
  exec.partition_multiplier = 0;
  const auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec);
  EXPECT_EQ(parallel.tuple_count, sequential.tuple_count);
}

TEST_F(MultiwayExecTest, ReportsProbeTelemetryAndWorkerStats) {
  const auto chain = Chain(4);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  const auto result = RunParallelChainSpatialJoin(chain, jopt, exec);
  EXPECT_GT(result.pairwise_task_count, 0u);
  // Every probe is charged to the worker that staged its pair, so the
  // per-worker counters merge to the total.
  Statistics merged;
  for (const Statistics& st : result.worker_stats) merged.MergeFrom(st);
  EXPECT_EQ(merged.window_queries, result.total_stats.window_queries);
  EXPECT_GT(result.total_stats.window_queries, 0u);
}

TEST_F(MultiwayExecTest, EveryPhaseSharesResidentDecodes) {
  const auto chain = Chain(4);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  const auto cached = RunParallelChainSpatialJoin(chain, jopt, exec);
  EXPECT_EQ(cached.tuple_count, RunChainSpatialJoin(chain, jopt).tuple_count);
  EXPECT_GT(cached.total_stats.node_cache_hits, 0u);
}

TEST_F(MultiwayExecTest, EmptyMiddleRelationYieldsNothing) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<Rect> empty;
  IndexedRelation empty_rel(empty, topt);
  const std::vector<JoinRelation> chain = {
      {&(*relations_)[0]->tree(), &(*rects_)[0]},
      {&empty_rel.tree(), &empty},
      {&(*relations_)[2]->tree(), &(*rects_)[2]},
  };
  JoinOptions jopt;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  const auto result = RunParallelChainSpatialJoin(chain, jopt, exec);
  EXPECT_EQ(result.tuple_count, 0u);
}

TEST_F(MultiwayExecTest, RejectsSingleRelation) {
  const auto chain = Chain(1);
  JoinOptions jopt;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  EXPECT_DEATH(RunParallelChainSpatialJoin(chain, jopt, exec),
               ">= 2 relations");
}

}  // namespace
}  // namespace rsj
