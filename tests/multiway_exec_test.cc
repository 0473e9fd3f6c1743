// Tests for the parallel multi-way chain executor: exact tuple-multiset
// equivalence with the sequential chain join across chain lengths, thread
// counts and predicates, the decode savings of the shared node cache, the
// per-worker frontier ceiling (frontier_peak_tuples), and that every probe
// runs on the context's task runner.

#include "exec/multiway_executor.h"

#include <algorithm>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
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

// The largest ProbeChainWindow hit count on relation `k` for any rectangle
// of relation k - 1: the most matches one open probe of phase k holds.
size_t MaxProbeHits(const std::vector<JoinRelation>& chain, size_t k,
                    const JoinOptions& jopt) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{jopt.buffer_bytes, kPageSize1K},
                  &stats);
  size_t most = 0;
  std::vector<uint32_t> hits;
  for (const Rect& query : *chain[k - 1].rects) {
    hits.clear();
    ProbeChainWindow(*chain[k].tree, &pool, /*nodes=*/nullptr, jopt, query,
                     &stats, &hits);
    most = std::max(most, hits.size());
  }
  return most;
}

TEST_F(MultiwayExecTest, ChainFrontierIsBoundedPerWorker) {
  // Each worker holds one staged chunk plus one probe's matches per phase,
  // so the gauge stays at or below num_threads × (chunk_capacity + H),
  // where H sums the largest probe hit count of every phase, and strictly
  // below the sequential chain's whole largest frontier.
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

    uint64_t hits = 0;
    for (size_t k = 2; k < chain_len; ++k) {
      hits += MaxProbeHits(chain, k, jopt);
    }
    const uint64_t ceiling = exec.num_threads * (exec.chunk_capacity + hits);
    const uint64_t peak = parallel.total_stats.frontier_peak_tuples;
    EXPECT_GT(peak, 0u) << "chain=" << chain_len;
    EXPECT_LE(peak, ceiling) << "chain=" << chain_len;
    EXPECT_LT(peak, sequential.stats.frontier_peak_tuples)
        << "chain=" << chain_len;
  }
}

TEST_F(MultiwayExecTest, ProbesRunOnTheContextsTaskRunner) {
  // A borrowed context whose runner executes every task inline on the
  // calling thread: every probe_chunk span must carry this thread's tid,
  // so no probe ran on a thread of its own.
  TraceRecorder tracer(TraceOptions{.sample_period = 1});
  { TraceSpan marker(&tracer, "test", "marker"); }
  SharedBufferPool pool(SharedBufferPool::Options{128 * 1024, kPageSize1K});
  NodeCache nodes(&pool, NodeCache::Options{});
  ExecContext::Borrowed shared;
  shared.pool = &pool;
  shared.nodes = &nodes;
  shared.task_runner =
      [](unsigned workers, size_t num_tasks,
         const std::function<void(unsigned, size_t)>& fn) {
        std::vector<uint64_t> executed(workers, 0);
        for (size_t t = 0; t < num_tasks; ++t) fn(0, t);
        executed[0] = num_tasks;
        return executed;
      };
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

TEST_F(MultiwayExecTest, EveryPhaseReadsThroughTheNodeCache) {
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
