// Tests for the parallel multi-way chain executor: exact tuple-multiset
// equivalence with the sequential chain join across chain lengths, thread
// counts, predicates and both formulations (streaming pipeline vs
// materialized), the decode savings of the shared
// node cache, the bounded-channel backpressure, and the pipeline's
// frontier-memory ceiling (frontier_peak_tuples).

#include "exec/multiway_executor.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "exec/frontier_channel.h"
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
      for (const bool pipelined : {true, false}) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
          ParallelExecutorOptions exec;
          exec.num_threads = threads;
          exec.pipelined = pipelined;
          auto parallel =
              RunParallelChainSpatialJoin(chain, jopt, exec, true);
          EXPECT_EQ(parallel.tuple_count, sequential.tuple_count)
              << "chain=" << chain_len << " threads=" << threads
              << " pipelined=" << pipelined << " "
              << JoinPredicateName(predicate);
          EXPECT_EQ(parallel.used_pipeline, pipelined && threads > 1);
          std::sort(parallel.tuples.begin(), parallel.tuples.end());
          EXPECT_EQ(parallel.tuples, sequential.tuples)
              << "chain=" << chain_len << " threads=" << threads
              << " pipelined=" << pipelined << " "
              << JoinPredicateName(predicate);
        }
      }
    }
  }
}

TEST_F(MultiwayExecTest, PipelinePeakFrontierIsBoundedByChunksInFlight) {
  // Tiny chunks + a tight channel bound force many in-flight handoffs;
  // the gauge must stay below the structural ceiling
  //   phases × (channel_bound + 2 × workers) × chunk_capacity
  // (queued chunks + one in-process chunk per consumer + one partial
  // chunk per producer) and strictly below the materialized
  // formulation's whole-frontier peak — on identical tuple multisets.
  for (const size_t chain_len : {size_t{3}, size_t{4}}) {
    const auto chain = Chain(chain_len);
    JoinOptions jopt;
    jopt.algorithm = JoinAlgorithm::kSJ4;
    ParallelExecutorOptions exec;
    exec.num_threads = 4;
    exec.chunk_capacity = 8;
    exec.channel_bound = 2;
    exec.pipelined = true;
    auto piped = RunParallelChainSpatialJoin(chain, jopt, exec, true);
    exec.pipelined = false;
    auto materialized = RunParallelChainSpatialJoin(chain, jopt, exec, true);

    std::sort(piped.tuples.begin(), piped.tuples.end());
    std::sort(materialized.tuples.begin(), materialized.tuples.end());
    EXPECT_EQ(piped.tuples, materialized.tuples) << "chain=" << chain_len;

    const uint64_t phases = chain_len - 2;
    const uint64_t ceiling =
        phases * (exec.channel_bound + 2 * exec.num_threads) *
        exec.chunk_capacity;
    EXPECT_GT(piped.total_stats.frontier_peak_tuples, 0u)
        << "chain=" << chain_len;
    EXPECT_LE(piped.total_stats.frontier_peak_tuples, ceiling)
        << "chain=" << chain_len;
    // The materialized peak is the largest whole frontier — identical to
    // the sequential accounting — and the pipeline stays strictly below.
    const auto sequential = RunChainSpatialJoin(chain, jopt, false);
    EXPECT_EQ(materialized.total_stats.frontier_peak_tuples,
              sequential.stats.frontier_peak_tuples);
    EXPECT_LT(piped.total_stats.frontier_peak_tuples,
              materialized.total_stats.frontier_peak_tuples)
        << "chain=" << chain_len;
  }
}

TEST(FrontierChannelTest, BoundedPushBlocksUntilASlowConsumerPops) {
  FrontierChannel channel(/*bound=*/2, /*producers=*/1);
  auto make_chunk = [](uint32_t v) {
    FrontierChunk chunk;
    chunk.arity = 2;
    chunk.flat = {v, v};
    return chunk;
  };
  channel.Push(make_chunk(0));
  channel.Push(make_chunk(1));
  EXPECT_EQ(channel.size(), 2u);
  // The channel is full: the third push must block until a pop frees a
  // slot (backpressure under a slow consumer).
  std::thread producer([&]() {
    channel.Push(make_chunk(2));
    channel.RetireProducer();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(channel.chunks_pushed(), 2u);  // still blocked
  EXPECT_EQ(channel.size(), 2u);
  FrontierChunk out;
  ASSERT_TRUE(channel.Pop(&out));
  EXPECT_EQ(out.flat[0], 0u);  // FIFO
  producer.join();
  EXPECT_EQ(channel.chunks_pushed(), 3u);
  EXPECT_LE(channel.peak_size(), channel.bound());
  ASSERT_TRUE(channel.Pop(&out));
  ASSERT_TRUE(channel.Pop(&out));
  EXPECT_EQ(out.flat[0], 2u);
  // Drained and the only producer retired: Pop reports closure.
  EXPECT_FALSE(channel.Pop(&out));
}

TEST(FrontierChannelTest, PopBlocksUntilProducersRetire) {
  FrontierChannel channel(/*bound=*/4, /*producers=*/2);
  std::thread consumer([&]() {
    FrontierChunk out;
    EXPECT_FALSE(channel.Pop(&out));  // wakes only on full retirement
  });
  channel.RetireProducer();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel.RetireProducer();
  consumer.join();
}

TEST_F(MultiwayExecTest, RejectsZeroChunkCapacityAndChannelBound) {
  const auto chain = Chain(3);
  JoinOptions jopt;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.chunk_capacity = 0;
  EXPECT_DEATH(RunParallelChainSpatialJoin(chain, jopt, exec),
               "chunk_capacity >= 1");
  exec.chunk_capacity = 1024;
  exec.channel_bound = 0;
  EXPECT_DEATH(RunParallelChainSpatialJoin(chain, jopt, exec),
               "channel_bound >= 1");
}

TEST_F(MultiwayExecTest, ZeroPartitionMultiplierStillProbesEveryTuple) {
  // Regression for the probe-chunk sizing: a zero multiplier used to zero
  // the target_chunks divisor.
  const auto chain = Chain(3);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  auto sequential = RunChainSpatialJoin(chain, jopt, false);
  for (const bool pipelined : {true, false}) {
    ParallelExecutorOptions exec;
    exec.num_threads = 2;
    exec.partition_multiplier = 0;
    exec.pipelined = pipelined;
    const auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec);
    EXPECT_EQ(parallel.tuple_count, sequential.tuple_count)
        << "pipelined=" << pipelined;
  }
}

TEST_F(MultiwayExecTest, ReportsProbeTelemetryAndWorkerStats) {
  const auto chain = Chain(4);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  const auto result = RunParallelChainSpatialJoin(chain, jopt, exec);
  EXPECT_GT(result.pairwise_task_count, 0u);
  ASSERT_EQ(result.probe_chunk_counts.size(), 2u);  // phases for R3, R4
  ASSERT_EQ(result.worker_probe_chunks.size(), 4u);
  uint64_t executed = 0;
  for (const uint64_t c : result.worker_probe_chunks) executed += c;
  uint64_t scheduled = 0;
  for (const size_t c : result.probe_chunk_counts) scheduled += c;
  EXPECT_EQ(executed, scheduled);
  // Per-worker counters merge to the total.
  Statistics merged;
  for (const Statistics& st : result.worker_stats) merged.MergeFrom(st);
  EXPECT_LE(merged.window_queries, result.total_stats.window_queries);
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
  ASSERT_EQ(result.probe_chunk_counts.size(), 1u);
  EXPECT_EQ(result.probe_chunk_counts[0], 0u);  // empty frontier, no chunks
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
