// Tests for the execution subsystem: batched result sinks, the shared
// concurrent buffer pool, the work-stealing scheduler, a run's modeled-I/O
// window, depth-adaptive partitioning, and the parallel executor's exact
// equivalence with the sequential engine across algorithms and thread
// counts.

#include <algorithm>
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "exec/exec_context.h"
#include "exec/parallel_executor.h"
#include "exec/partition.h"
#include "exec/result_sink.h"
#include "exec/task_scheduler.h"
#include "io/io_scheduler.h"
#include "join/join_runner.h"
#include "storage/buffer_pool.h"
#include "storage/shared_buffer_pool.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// --- result sinks ----------------------------------------------------------

TEST(ResultSinkTest, CountingSinkCountsAcrossBatchBoundaries) {
  CountingSink sink;
  const size_t n = 2 * ResultSink::kBatchCapacity + 437;
  for (size_t i = 0; i < n; ++i) {
    sink.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1));
  }
  EXPECT_EQ(sink.count(), n);
  sink.Flush();
  EXPECT_EQ(sink.count(), n);
  sink.Flush();  // idempotent
  EXPECT_EQ(sink.count(), n);
}

TEST(ResultSinkTest, MaterializingSinkPreservesInsertionOrder) {
  MaterializingSink sink;
  const size_t n = ResultSink::kBatchCapacity + 5;
  for (size_t i = 0; i < n; ++i) {
    sink.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(2 * i));
  }
  const ResultChunkList chunks = sink.TakeChunks();
  EXPECT_EQ(chunks.pair_count(), n);
  const auto pairs = chunks.CopyPairs();
  ASSERT_EQ(pairs.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(pairs[i].first, i);
    EXPECT_EQ(pairs[i].second, 2 * i);
  }
}

TEST(ResultSinkTest, MaterializingSinkEmitsFullThenPartialChunks) {
  ChunkArena arena(ChunkArena::Options{/*chunk_capacity=*/64});
  MaterializingSink sink{arena};
  const size_t n = 3 * 64 + 7;
  for (size_t i = 0; i < n; ++i) {
    sink.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i));
  }
  const ResultChunkList chunks = sink.TakeChunks();
  ASSERT_EQ(chunks.chunk_count(), 4u);
  size_t expected = 0;
  for (const ChunkPtr& chunk : chunks) {
    EXPECT_LE(chunk->size(), chunk->capacity());
    for (const ResultPair& p : chunk->pairs()) {
      EXPECT_EQ(p.r, expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, n);
}

TEST(ResultSinkTest, ChunkArenaRecyclesBlocksAcrossRuns) {
  ChunkArena arena(ChunkArena::Options{/*chunk_capacity=*/32});
  uint64_t allocated_after_first = 0;
  for (int run = 0; run < 3; ++run) {
    MaterializingSink sink{arena};
    for (uint32_t i = 0; i < 500; ++i) sink.Add(i, i);
    ResultChunkList chunks = sink.TakeChunks();
    EXPECT_EQ(chunks.pair_count(), 500u);
    chunks.clear();  // releases every block back to the free list
    if (run == 0) {
      allocated_after_first = arena.chunks_allocated();
      EXPECT_GT(allocated_after_first, 0u);
    } else {
      // Steady state: later runs draw entirely from the free list.
      EXPECT_EQ(arena.chunks_allocated(), allocated_after_first)
          << "run " << run;
    }
  }
  EXPECT_GT(arena.free_chunks(), 0u);
}

TEST(ResultSinkTest, ChunkListSpliceMovesChunksWithoutCopying) {
  ChunkArena arena(ChunkArena::Options{/*chunk_capacity=*/16});
  MaterializingSink a{arena};
  MaterializingSink b{arena};
  for (uint32_t i = 0; i < 40; ++i) a.Add(i, i);
  for (uint32_t i = 100; i < 130; ++i) b.Add(i, i);
  ResultChunkList list_a = a.TakeChunks();
  ResultChunkList list_b = b.TakeChunks();
  // Identity of the spliced chunks proves the merge moved pointers: the
  // blocks in the merged list ARE the producers' blocks.
  std::vector<const ResultChunk*> produced;
  for (const ChunkPtr& c : list_a) produced.push_back(c.get());
  for (const ChunkPtr& c : list_b) produced.push_back(c.get());
  ResultChunkList merged = std::move(list_a);
  merged.Splice(std::move(list_b));
  EXPECT_EQ(merged.pair_count(), 70u);
  ASSERT_EQ(merged.chunk_count(), produced.size());
  size_t i = 0;
  for (const ChunkPtr& c : merged) {
    EXPECT_EQ(c.get(), produced[i++]);
  }
}

TEST(ResultSinkTest, BatchedCallbackSinkDeliversFullThenPartialBatches) {
  std::vector<size_t> batch_sizes;
  std::vector<ResultPair> received;
  BatchedCallbackSink sink([&](std::span<const ResultPair> batch) {
    batch_sizes.push_back(batch.size());
    received.insert(received.end(), batch.begin(), batch.end());
  });
  const size_t n = 3 * ResultSink::kBatchCapacity + 11;
  for (size_t i = 0; i < n; ++i) {
    sink.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i));
  }
  sink.Flush();
  ASSERT_EQ(batch_sizes.size(), 4u);
  EXPECT_EQ(batch_sizes[0], ResultSink::kBatchCapacity);
  EXPECT_EQ(batch_sizes[1], ResultSink::kBatchCapacity);
  EXPECT_EQ(batch_sizes[2], ResultSink::kBatchCapacity);
  EXPECT_EQ(batch_sizes[3], 11u);
  ASSERT_EQ(received.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(received[i], (ResultPair{static_cast<uint32_t>(i),
                                       static_cast<uint32_t>(i)}));
  }
}

TEST(ResultSinkTest, EmptySinkFlushDeliversNothing) {
  size_t calls = 0;
  BatchedCallbackSink sink([&](std::span<const ResultPair>) { ++calls; });
  sink.Flush();
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(sink.count(), 0u);
}

// --- statistics merging ----------------------------------------------------

TEST(StatisticsTest, MergeFromAddsEveryCounter) {
  Statistics a;
  a.disk_reads = 3;
  a.buffer_hits = 5;
  a.output_pairs = 7;
  a.join_comparisons.Add(11);
  a.prefetch_issued = 2;
  Statistics b;
  b.disk_reads = 13;
  b.buffer_evictions = 17;
  b.sort_comparisons.Add(19);
  b.window_queries = 23;
  b.prefetch_issued = 29;
  b.prefetch_hits = 31;
  b.prefetch_wasted = 37;
  b.modeled_io_micros = 43;
  a.frontier_peak_tuples = 50;
  b.frontier_peak_tuples = 47;
  a.MergeFrom(b);
  EXPECT_EQ(a.disk_reads, 16u);
  EXPECT_EQ(a.buffer_hits, 5u);
  EXPECT_EQ(a.buffer_evictions, 17u);
  EXPECT_EQ(a.output_pairs, 7u);
  EXPECT_EQ(a.join_comparisons.count(), 11u);
  EXPECT_EQ(a.sort_comparisons.count(), 19u);
  EXPECT_EQ(a.window_queries, 23u);
  EXPECT_EQ(a.prefetch_issued, 31u);
  EXPECT_EQ(a.prefetch_hits, 31u);
  EXPECT_EQ(a.prefetch_wasted, 37u);
  EXPECT_EQ(a.modeled_io_micros, 43u);
  // High-water mark: merged by max, not summed.
  EXPECT_EQ(a.frontier_peak_tuples, 50u);
}

// --- shared buffer pool ----------------------------------------------------

TEST(SharedBufferPoolTest, HitOnSecondReadAndPerCallerAttribution) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  SharedBufferPool pool(
      SharedBufferPool::Options{4 * kPageSize1K, kPageSize1K, 4});
  Statistics worker_a;
  Statistics worker_b;
  EXPECT_FALSE(pool.Read(file, id, &worker_a));  // miss, charged to A
  EXPECT_TRUE(pool.Read(file, id, &worker_b));   // hit, charged to B
  EXPECT_EQ(worker_a.disk_reads, 1u);
  EXPECT_EQ(worker_a.buffer_hits, 0u);
  EXPECT_EQ(worker_b.disk_reads, 0u);
  EXPECT_EQ(worker_b.buffer_hits, 1u);
}

TEST(SharedBufferPoolTest, FrameBudgetSplitsOverShards) {
  SharedBufferPool pool(
      SharedBufferPool::Options{10 * kPageSize1K, kPageSize1K, 4});
  EXPECT_EQ(pool.frame_capacity(), 10u);
  EXPECT_EQ(pool.shard_count(), 4u);
}

TEST(SharedBufferPoolTest, PinnedPageSurvivesEvictionPressure) {
  PagedFile file(kPageSize1K);
  const PageId pinned = file.Allocate();
  std::vector<PageId> others;
  for (int i = 0; i < 16; ++i) others.push_back(file.Allocate());
  // One frame in one shard: maximal eviction pressure.
  SharedBufferPool pool(
      SharedBufferPool::Options{1 * kPageSize1K, kPageSize1K, 1});
  Statistics stats;
  pool.Pin(file, pinned, &stats);
  for (const PageId id : others) pool.Read(file, id, &stats);
  EXPECT_TRUE(pool.Contains(file, pinned));
  pool.Unpin(file, pinned, &stats);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(SharedBufferPoolTest, PinsNestAcrossCallers) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  SharedBufferPool pool(SharedBufferPool::Options{0, kPageSize1K, 2});
  Statistics a;
  Statistics b;
  pool.Pin(file, id, &a);
  pool.Pin(file, id, &b);  // nests
  pool.Unpin(file, id, &a);
  EXPECT_TRUE(pool.Contains(file, id));  // b's pin still holds
  pool.Unpin(file, id, &b);
  // Zero frames: the page is dropped after the last unpin.
  EXPECT_FALSE(pool.Contains(file, id));
  EXPECT_EQ(a.pin_count + b.pin_count, 2u);
  // Only the first pin paid the read.
  EXPECT_EQ(a.disk_reads + b.disk_reads, 1u);
}

TEST(SharedBufferPoolTest, ConcurrentReadersAccountConsistently) {
  PagedFile file(kPageSize1K);
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) pages.push_back(file.Allocate());
  SharedBufferPool pool(
      SharedBufferPool::Options{32 * kPageSize1K, kPageSize1K, 8});
  constexpr unsigned kThreads = 4;
  constexpr size_t kReadsPerThread = 20000;
  std::vector<Statistics> stats(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = 0x9e3779b97f4a7c15ULL + t;
      for (size_t i = 0; i < kReadsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        pool.Read(file, pages[(state >> 33) % pages.size()], &stats[t]);
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t requests = 0;
  for (const Statistics& st : stats) {
    requests += st.disk_reads + st.buffer_hits;
  }
  EXPECT_EQ(requests, uint64_t{kThreads} * kReadsPerThread);
  EXPECT_LE(pool.frames_in_use(), pool.frame_capacity());
}

// --- task scheduler --------------------------------------------------------

TEST(TaskSchedulerTest, EveryTaskRunsExactlyOnce) {
  constexpr size_t kTasks = 500;
  std::vector<std::atomic<int>> executed(kTasks);
  TaskScheduler scheduler(4, kTasks);
  const auto counts = scheduler.Run(
      [&](unsigned, size_t task) { executed[task].fetch_add(1); });
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  EXPECT_EQ(total, kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(executed[i].load(), 1) << "task " << i;
  }
}

TEST(TaskSchedulerTest, EveryWorkerWithABlockExecutesAtLeastOneTask) {
  // Thieves leave the last task of a queue to its owner, so with >= 2
  // tasks per worker every worker must execute at least one — even when
  // one thread races ahead and steals aggressively.
  for (int round = 0; round < 5; ++round) {
    TaskScheduler scheduler(4, 8);
    const auto counts = scheduler.Run([](unsigned, size_t) {});
    ASSERT_EQ(counts.size(), 4u);
    for (unsigned w = 0; w < 4; ++w) {
      EXPECT_GE(counts[w], 1u) << "worker " << w;
    }
  }
}

TEST(TaskSchedulerTest, SingleWorkerRunsInline) {
  TaskScheduler scheduler(1, 17);
  size_t executed = 0;
  const auto counts = scheduler.Run([&](unsigned w, size_t) {
    EXPECT_EQ(w, 0u);
    ++executed;
  });
  EXPECT_EQ(executed, 17u);
  EXPECT_EQ(counts[0], 17u);
}

TEST(TaskSchedulerTest, ZeroTasksCompletesImmediately) {
  TaskScheduler scheduler(3, 0);
  const auto counts = scheduler.Run(
      [](unsigned, size_t) { FAIL() << "no task should run"; });
  for (const uint64_t c : counts) EXPECT_EQ(c, 0u);
}

// --- IoWindow --------------------------------------------------------------

// Two actors read through a window while an actor outside the run is
// live. Owned: the close merges every clock, so elapsed is the merged
// clock minus the clock at open and the floor catches up. Borrowed: the
// outside actor is a concurrent session, so the close reports the largest
// retired clock minus the floor at open and leaves the floor and the
// outside clock alone. Either way no actor of the run stays live.
TEST(IoWindowTest, ClosesOwnedAndBorrowedRunsByTheirRules) {
  PagedFile file(kPageSize1K);
  for (int i = 0; i < 4; ++i) file.Allocate();
  IoScheduler::Options options;
  options.disks.disk_count = 2;
  for (const bool owned : {true, false}) {
    IoScheduler io(options);
    // An earlier region moves the floor off zero.
    Statistics earlier;
    io.BlockingRead(&io, file, 3, kPageSize1K, &earlier);
    const uint64_t floor = io.SynchronizeClocks();
    ASSERT_GT(floor, 0u);
    Statistics outside;
    io.BlockingRead(&io, file, 2, kPageSize1K, &outside);
    const uint64_t outside_clock = io.ActorClock(&outside);
    const uint64_t clock_at_open = io.NowMicros();
    ASSERT_GT(clock_at_open, floor);

    IoWindow window(&io, owned);
    Statistics a;
    Statistics b;
    io.BlockingRead(&io, file, 0, kPageSize1K, &a);
    io.BlockingRead(&io, file, 1, kPageSize1K, &b);
    io.BlockingRead(&io, file, 3, kPageSize1K, &b);
    const uint64_t end = std::max(io.ActorClock(&a), io.ActorClock(&b));
    window.Retire(&a);
    window.Retire(&b);

    const uint64_t merged = io.NowMicros();
    const uint64_t elapsed = window.Close();
    if (owned) {
      EXPECT_EQ(elapsed, merged - clock_at_open);
      EXPECT_EQ(io.FloorMicros(), merged);
      EXPECT_EQ(io.ActorClock(&outside), merged);  // folded in
    } else {
      EXPECT_EQ(elapsed, end - floor);
      EXPECT_EQ(io.FloorMicros(), floor);
      EXPECT_EQ(io.ActorClock(&outside), outside_clock);
    }
    for (const Statistics* actor : {&a, &b}) {
      EXPECT_EQ(io.ActorClock(actor), io.FloorMicros());
    }
  }
}

// --- partitioning ----------------------------------------------------------

class PartitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    r_ = new IndexedRelation(testutil::ClusteredRects(4000, 931), topt);
    s_ = new IndexedRelation(testutil::ClusteredRects(3600, 932), topt);
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

IndexedRelation* PartitionTest::r_ = nullptr;
IndexedRelation* PartitionTest::s_ = nullptr;

TEST_F(PartitionTest, SmallTargetStaysAtRootLevel) {
  JoinOptions jopt;
  Statistics stats;
  BufferPool pool(BufferPool::Options{128 * 1024, kPageSize1K}, &stats);
  const PartitionPlan plan =
      BuildPartitionPlan(r_->tree(), s_->tree(), jopt, 1, &pool, &stats);
  EXPECT_FALSE(plan.degenerate);
  EXPECT_EQ(plan.depth, 0);
  EXPECT_GT(plan.tasks.size(), 0u);
  EXPECT_GT(stats.disk_reads, 0u);  // coordinator I/O is counted
}

TEST_F(PartitionTest, LargeTargetDescendsBelowTheRoot) {
  JoinOptions jopt;
  Statistics stats;
  BufferPool pool(BufferPool::Options{128 * 1024, kPageSize1K}, &stats);
  const PartitionPlan shallow =
      BuildPartitionPlan(r_->tree(), s_->tree(), jopt, 1, &pool, &stats);
  const PartitionPlan deep = BuildPartitionPlan(
      r_->tree(), s_->tree(), jopt, shallow.tasks.size() + 1, &pool, &stats);
  EXPECT_GE(deep.depth, 1);
  EXPECT_GT(deep.tasks.size(), shallow.tasks.size());
}

TEST_F(PartitionTest, LeafRootIsDegenerate) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation tiny(testutil::RandomRects(5, 933, 0.3), topt);
  JoinOptions jopt;
  Statistics stats;
  BufferPool pool(BufferPool::Options{128 * 1024, kPageSize1K}, &stats);
  EXPECT_TRUE(BuildPartitionPlan(tiny.tree(), s_->tree(), jopt, 8, &pool,
                                 &stats)
                  .degenerate);
  EXPECT_TRUE(BuildPartitionPlan(r_->tree(), tiny.tree(), jopt, 8, &pool,
                                 &stats)
                  .degenerate);
}

// --- parallel executor -----------------------------------------------------

class ParallelExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    r_ = new IndexedRelation(testutil::ClusteredRects(1500, 941), topt);
    s_ = new IndexedRelation(testutil::ClusteredRects(1300, 942), topt);
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

IndexedRelation* ParallelExecutorTest::r_ = nullptr;
IndexedRelation* ParallelExecutorTest::s_ = nullptr;

TEST_F(ParallelExecutorTest, MatchesSequentialForAllAlgorithmsAndModes) {
  for (const JoinAlgorithm alg :
       {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
        JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
        JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5}) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    jopt.buffer_bytes = 32 * 1024;
    const auto sequential =
        RunSpatialJoin(r_->tree(), s_->tree(), jopt, true);
    const auto expected = testutil::Canonical(sequential.chunks);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ParallelExecutorOptions exec;
      exec.num_threads = threads;
      exec.collect_pairs = true;
      auto parallel =
          RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
      EXPECT_EQ(parallel.pair_count, sequential.pair_count)
          << JoinAlgorithmName(alg) << " threads=" << threads;
      EXPECT_EQ(testutil::Canonical(parallel.chunks), expected)
          << JoinAlgorithmName(alg) << " threads=" << threads;
      EXPECT_EQ(parallel.total_stats.output_pairs, parallel.pair_count);
    }
  }
}

TEST_F(ParallelExecutorTest, ParallelMergeSplicesWorkerChunksWithoutCopies) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ChunkArena arena(ChunkArena::Options{/*chunk_capacity=*/64});
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.collect_pairs = true;
  exec.chunk_arena = &arena;
  auto first = RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
  EXPECT_EQ(first.chunks.pair_count(), first.pair_count);
  EXPECT_GT(first.chunks.chunk_count(), size_t{exec.num_threads});
  // Zero-copy merge, enforced: every block ever allocated is either in
  // the merged result or is a worker's released staging block. A copying
  // merge would have needed roughly twice as many blocks.
  EXPECT_LE(arena.chunks_allocated(),
            first.chunks.chunk_count() + exec.num_threads + 1);
  // And the result (sans order) equals the sequential join's.
  const auto sequential = RunSpatialJoin(r_->tree(), s_->tree(), jopt, true);
  EXPECT_EQ(testutil::Canonical(first.chunks),
            testutil::Canonical(sequential.chunks));

  // Arena reuse across runs: releasing the first result returns every
  // block to the free list, so a second identical run draws from it
  // instead of allocating. Work stealing varies how many partial chunks
  // each worker flushes, so allow up to one extra staging block per
  // worker — but never per-pair growth.
  const uint64_t allocated_after_first = arena.chunks_allocated();
  first.chunks.clear();
  auto second = RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
  EXPECT_EQ(second.pair_count, first.pair_count);
  EXPECT_LE(arena.chunks_allocated(),
            allocated_after_first + exec.num_threads);
}

TEST_F(ParallelExecutorTest, RejectsZeroChunkCapacity) {
  JoinOptions jopt;
  ParallelExecutorOptions exec;
  exec.num_threads = 2;
  exec.chunk_capacity = 0;
  EXPECT_DEATH(RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec),
               "chunk_capacity >= 1");
}

TEST_F(ParallelExecutorTest, DepthAdaptivePartitioningReportsTelemetry) {
  // Needs trees of height >= 3 so the partitioner has a directory level
  // below the root to descend into.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation tall_r(testutil::ClusteredRects(4000, 943), topt);
  IndexedRelation tall_s(testutil::ClusteredRects(3600, 944), topt);
  ASSERT_GE(tall_r.tree().height(), 3);
  ASSERT_GE(tall_s.tree().height(), 3);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.partition_multiplier = 1024;  // force descent below the root
  const auto result =
      RunParallelSpatialJoin(tall_r.tree(), tall_s.tree(), jopt, exec);
  EXPECT_GE(result.task_count, result.worker_stats.size());
  EXPECT_GE(result.partition_depth, 1);
  uint64_t executed = 0;
  for (const uint64_t c : result.worker_task_counts) executed += c;
  EXPECT_EQ(executed, result.task_count);
}

TEST_F(ParallelExecutorTest, SkewedDataStarvesNoWorker) {
  // One tight blob: the root fan-out is heavily unbalanced, the failure
  // mode of the seed's static root declustering.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation skew_r(
      testutil::ClusteredRects(2500, 951, /*clusters=*/1), topt);
  IndexedRelation skew_s(
      testutil::ClusteredRects(2200, 952, /*clusters=*/1), topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.collect_pairs = true;
  const auto result =
      RunParallelSpatialJoin(skew_r.tree(), skew_s.tree(), jopt, exec);
  const auto sequential =
      RunSpatialJoin(skew_r.tree(), skew_s.tree(), jopt, true);
  EXPECT_EQ(result.pair_count, sequential.pair_count);
  ASSERT_EQ(result.worker_task_counts.size(), 4u);
  for (size_t w = 0; w < result.worker_task_counts.size(); ++w) {
    EXPECT_GT(result.worker_task_counts[w], 0u) << "worker " << w;
  }
}

TEST_F(ParallelExecutorTest, RootLeafFallbackBothOrientations) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation tiny(testutil::RandomRects(5, 961, 0.3), topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 8;
  exec.collect_pairs = true;

  // Leaf root on the R side.
  const auto seq_r = RunSpatialJoin(tiny.tree(), s_->tree(), jopt, true);
  auto par_r = RunParallelSpatialJoin(tiny.tree(), s_->tree(), jopt, exec);
  EXPECT_EQ(testutil::Canonical(par_r.chunks),
            testutil::Canonical(seq_r.chunks));
  EXPECT_EQ(par_r.task_count, 1u);

  // Leaf root on the S side.
  const auto seq_s = RunSpatialJoin(r_->tree(), tiny.tree(), jopt, true);
  auto par_s = RunParallelSpatialJoin(r_->tree(), tiny.tree(), jopt, exec);
  EXPECT_EQ(testutil::Canonical(par_s.chunks),
            testutil::Canonical(seq_s.chunks));
  EXPECT_EQ(par_s.task_count, 1u);
}

TEST_F(ParallelExecutorTest, UnequalHeightsSplitIntoWindowPhaseTasks) {
  // A tall R against a height-2 S: the synchronized descent hits S's data
  // nodes after one level, so without the §4.4 split every (R subtree,
  // S leaf) pair would stay one oversized coarse task. The partitioner
  // keeps descending the R side alone.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation tall(testutil::ClusteredRects(4000, 963), topt);
  IndexedRelation flat(testutil::RandomRects(60, 964, 0.2), topt);
  ASSERT_GE(tall.tree().height(), 3);
  ASSERT_EQ(flat.tree().height(), 2);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;

  Statistics stats;
  BufferPool pool(BufferPool::Options{128 * 1024, kPageSize1K}, &stats);
  const PartitionPlan coarse =
      BuildPartitionPlan(tall.tree(), flat.tree(), jopt, 1, &pool, &stats);
  const PartitionPlan split =
      BuildPartitionPlan(tall.tree(), flat.tree(), jopt, 64, &pool, &stats);
  EXPECT_FALSE(split.degenerate);
  // Descending below the (dir, leaf) boundary is only possible by
  // splitting the window-query phase.
  EXPECT_GE(split.depth, 1);
  EXPECT_GT(split.tasks.size(), coarse.tasks.size());

  // Execution equivalence, both orientations, all three height policies.
  for (const HeightPolicy policy :
       {HeightPolicy::kPerPairQueries, HeightPolicy::kBatchedSubtree,
        HeightPolicy::kPinnedQueries}) {
    jopt.height_policy = policy;
    ParallelExecutorOptions exec;
    exec.num_threads = 4;
    exec.partition_multiplier = 16;
    exec.collect_pairs = true;
    const auto seq_rs = RunSpatialJoin(tall.tree(), flat.tree(), jopt, true);
    auto par_rs = RunParallelSpatialJoin(tall.tree(), flat.tree(), jopt, exec);
    EXPECT_EQ(testutil::Canonical(par_rs.chunks),
              testutil::Canonical(seq_rs.chunks))
        << "R tall, policy " << HeightPolicyName(policy);
    const auto seq_sr = RunSpatialJoin(flat.tree(), tall.tree(), jopt, true);
    auto par_sr = RunParallelSpatialJoin(flat.tree(), tall.tree(), jopt, exec);
    EXPECT_EQ(testutil::Canonical(par_sr.chunks),
              testutil::Canonical(seq_sr.chunks))
        << "S tall, policy " << HeightPolicyName(policy);
  }
}

TEST_F(ParallelExecutorTest, WindowSplitMatchesForExpandingPredicates) {
  // The split's qualifying filter must carry the predicate expansion on
  // the R side exactly like the engine's; within-distance is the case
  // that regresses if it does not.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation tall(testutil::ClusteredRects(4000, 965), topt);
  IndexedRelation flat(testutil::RandomRects(60, 966, 0.2), topt);
  ASSERT_GE(tall.tree().height(), 3);
  ASSERT_EQ(flat.tree().height(), 2);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.predicate = JoinPredicate::kWithinDistance;
  jopt.epsilon = 0.02;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.partition_multiplier = 16;
  exec.collect_pairs = true;
  for (const bool tall_is_r : {true, false}) {
    const RTree& r = tall_is_r ? tall.tree() : flat.tree();
    const RTree& s = tall_is_r ? flat.tree() : tall.tree();
    const auto sequential = RunSpatialJoin(r, s, jopt, true);
    auto parallel = RunParallelSpatialJoin(r, s, jopt, exec);
    EXPECT_EQ(testutil::Canonical(parallel.chunks),
              testutil::Canonical(sequential.chunks))
        << "tall_is_r=" << tall_is_r;
  }
}

}  // namespace
}  // namespace rsj
