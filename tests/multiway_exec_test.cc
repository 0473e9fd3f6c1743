// Tests for the multi-way chain executor: exact tuple-multiset equality
// with the brute-force chain oracle across chain lengths, thread counts
// and predicates, the one-thread run's spill and modeled I/O, the decodes
// shared through the pool's frames, the per-worker frontier ceiling
// (frontier_peak_tuples), and that every probe runs on the context's task
// pool.

#include "exec/multiway_executor.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/task_pool.h"
#include "io/io_scheduler.h"
#include "join/join_runner.h"
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

  // The brute-force result of the chain's first n relations.
  static testutil::Tuples Oracle(size_t n, const JoinOptions& jopt) {
    return testutil::ChainOracle(
        std::vector<std::vector<Rect>>(rects_->begin(), rects_->begin() + n),
        jopt);
  }

  static std::vector<std::vector<Rect>>* rects_;
  static std::vector<IndexedRelation*>* relations_;
};

std::vector<std::vector<Rect>>* MultiwayExecTest::rects_ = nullptr;
std::vector<IndexedRelation*>* MultiwayExecTest::relations_ = nullptr;

TEST_F(MultiwayExecTest, MatchesOracleAcrossThreadsAndPredicates) {
  for (const size_t chain_len : {size_t{3}, size_t{4}}) {
    const auto chain = Chain(chain_len);
    for (const JoinPredicate predicate :
         {JoinPredicate::kIntersects, JoinPredicate::kWithinDistance}) {
      JoinOptions jopt;
      jopt.algorithm = JoinAlgorithm::kSJ4;
      jopt.predicate = predicate;
      jopt.epsilon = predicate == JoinPredicate::kWithinDistance ? 0.01 : 0.0;
      const testutil::Tuples expected = Oracle(chain_len, jopt);
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        ParallelExecutorOptions exec;
        exec.num_threads = threads;
        auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec, true);
        EXPECT_EQ(parallel.tuple_count, expected.size())
            << "chain=" << chain_len << " threads=" << threads << " "
            << JoinPredicateName(predicate);
        EXPECT_EQ(testutil::Sorted(std::move(parallel.tuples)), expected)
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
  // hits, and strictly below the first phase's whole frontier (the
  // pairwise join's pairs).
  for (const size_t chain_len : {size_t{3}, size_t{4}}) {
    const auto chain = Chain(chain_len);
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    ParallelExecutorOptions exec;
    exec.num_threads = 4;
    exec.chunk_capacity = 8;
    auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec, true);
    EXPECT_EQ(parallel.tuple_count, Oracle(chain_len, jopt).size())
        << "chain=" << chain_len;

    const uint64_t ceiling =
        exec.num_threads * (chain_len - 2) * exec.chunk_capacity;
    const uint64_t peak = parallel.total_stats.frontier_peak_tuples;
    EXPECT_GT(peak, 0u) << "chain=" << chain_len;
    EXPECT_LE(peak, ceiling) << "chain=" << chain_len;
    EXPECT_LT(peak,
              RunSpatialJoin(*chain[0].tree, *chain[1].tree, jopt).pair_count)
        << "chain=" << chain_len;
  }
}

// The chain pin's 4-relation fixture (join_invariants_test), dense enough
// that an intermediate stage fills many times per staged chunk, with the
// oracle's result for its first 2, 3 and 4 relations.
class MultiwayExecDenseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    rects_ = new std::vector<std::vector<Rect>>{
        testutil::RandomRects(3000, 1601, 0.02),
        testutil::RandomRects(2800, 1602, 0.02),
        testutil::RandomRects(2600, 1604, 0.02),
        testutil::RandomRects(2400, 1605, 0.02),
    };
    relations_ = new std::vector<IndexedRelation*>;
    for (const auto& rects : *rects_) {
      relations_->push_back(new IndexedRelation(rects, topt));
    }
    // Each prefix's result extends the previous one by one phase.
    oracles_ = new std::vector<testutil::Tuples>{
        testutil::ChainOracle({(*rects_)[0], (*rects_)[1]}, Join())};
    for (size_t n = 3; n <= rects_->size(); ++n) {
      oracles_->push_back(testutil::ExtendChainOracle(
          oracles_->back(), (*rects_)[n - 2], (*rects_)[n - 1], Join()));
    }
  }
  static void TearDownTestSuite() {
    for (IndexedRelation* rel : *relations_) delete rel;
    delete relations_;
    delete rects_;
    delete oracles_;
    relations_ = nullptr;
    rects_ = nullptr;
    oracles_ = nullptr;
  }

  static JoinOptions Join() {
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    return jopt;
  }

  static std::vector<JoinRelation> Chain(size_t n) {
    std::vector<JoinRelation> chain;
    for (size_t i = 0; i < n; ++i) {
      chain.push_back({&(*relations_)[i]->tree(), &(*rects_)[i]});
    }
    return chain;
  }

  // The brute-force result of the chain's first n >= 2 relations.
  static const testutil::Tuples& Oracle(size_t n) {
    return (*oracles_)[n - 2];
  }

  static std::vector<std::vector<Rect>>* rects_;
  static std::vector<IndexedRelation*>* relations_;
  static std::vector<testutil::Tuples>* oracles_;
};

std::vector<std::vector<Rect>>* MultiwayExecDenseTest::rects_ = nullptr;
std::vector<IndexedRelation*>* MultiwayExecDenseTest::relations_ = nullptr;
std::vector<testutil::Tuples>* MultiwayExecDenseTest::oracles_ = nullptr;

TEST_F(MultiwayExecDenseTest, FullIntermediateStagesAreProbedAndBounded) {
  // Each full intermediate stage is probed at once, so the tuples equal
  // the oracle's, every tuple of phases 2 and 3 is probed once (one window
  // query each) and the gauge stays within num_threads × 2 ×
  // chunk_capacity.
  const auto chain = Chain(4);
  const testutil::Tuples& expected = Oracle(4);
  ASSERT_GT(expected.size(), 16 * 8u);
  const uint64_t window_queries = Oracle(2).size() + Oracle(3).size();
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelExecutorOptions exec;
    exec.num_threads = threads;
    exec.chunk_capacity = 8;
    auto parallel = RunParallelChainSpatialJoin(chain, Join(), exec, true);
    EXPECT_EQ(testutil::Sorted(std::move(parallel.tuples)), expected)
        << "threads=" << threads;
    EXPECT_EQ(parallel.total_stats.window_queries, window_queries)
        << "threads=" << threads;
    const uint64_t peak = parallel.total_stats.frontier_peak_tuples;
    EXPECT_GT(peak, 0u) << "threads=" << threads;
    EXPECT_LE(peak, threads * 2 * exec.chunk_capacity)
        << "threads=" << threads;
  }
}

TEST_F(MultiwayExecDenseTest, OneThreadRunSpillsAndModelsIo) {
  // One thread runs the same sinks as every other thread count: the
  // collected tuples spill past one resident chunk, the reads cost modeled
  // disk time, and the frontier stays within one worker's ceiling.
  for (const size_t chain_len : {size_t{3}, size_t{4}}) {
    IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
    ParallelExecutorOptions exec;
    exec.num_threads = 1;
    exec.chunk_capacity = 8;
    exec.spill_results = true;
    exec.spill_budget_chunks = 1;
    exec.io_scheduler = &io;
    const auto result =
        RunParallelChainSpatialJoin(Chain(chain_len), Join(), exec, true);
    const testutil::Tuples& expected = Oracle(chain_len);
    EXPECT_EQ(result.tuple_count, expected.size()) << "chain=" << chain_len;
    EXPECT_TRUE(result.tuples.empty()) << "chain=" << chain_len;
    Statistics read_stats;
    EXPECT_EQ(testutil::Sorted(result.spilled_tuples.CopyTuples(&read_stats)),
              expected)
        << "chain=" << chain_len;
    EXPECT_LE(result.total_stats.result_peak_chunks_resident, 1u)
        << "chain=" << chain_len;
    EXPECT_GT(result.total_stats.result_chunks_spilled, 0u)
        << "chain=" << chain_len;
    EXPECT_GT(result.modeled_elapsed_micros, 0u) << "chain=" << chain_len;
    const uint64_t peak = result.total_stats.frontier_peak_tuples;
    EXPECT_GT(peak, 0u) << "chain=" << chain_len;
    EXPECT_LE(peak, (chain_len - 2) * exec.chunk_capacity)
        << "chain=" << chain_len;
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
  EXPECT_EQ(result.tuple_count, Oracle(4, jopt).size());

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
  ParallelExecutorOptions exec;
  exec.num_threads = 2;
  exec.partition_multiplier = 0;
  const auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec);
  EXPECT_EQ(parallel.tuple_count, Oracle(3, jopt).size());
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
  EXPECT_EQ(cached.tuple_count, Oracle(4, jopt).size());
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
