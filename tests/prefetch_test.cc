// Tests for the prefetch path of the page caches: prefetched pages land as
// evictable frames (never as pins), pinned pages survive any prefetch
// pressure, duplicate prefetches coalesce, consumption/eviction drive the
// prefetch_hits / prefetch_wasted counters, and the whole machinery is
// safe under concurrent prefetch + read + pin traffic (run under TSan in
// CI). Also covers the schedule-driven Prefetcher's budget and the
// parallel executors' equivalence with prefetching enabled.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/multiway_executor.h"
#include "exec/parallel_executor.h"
#include "io/io_scheduler.h"
#include "io/prefetcher.h"
#include "join/join_runner.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

BufferPool::Options PoolOptions(uint64_t frames) {
  return BufferPool::Options{frames * kPageSize1K, kPageSize1K};
}

TEST(PrefetchTest, PrefetchedPageLandsAsEvictableFrame) {
  Statistics stats;
  BufferPool pool(PoolOptions(2));
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_TRUE(pool.Prefetch(file, a, &stats));
  EXPECT_TRUE(pool.Contains(file, a));
  EXPECT_EQ(pool.prefetched_unconsumed(), 1u);
  EXPECT_EQ(pool.pinned_pages(), 0u);  // never a pin
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.disk_reads, 1u);  // the physical read is charged at issue
}

TEST(PrefetchTest, ConsumingAPrefetchedFrameCountsAHit) {
  Statistics stats;
  BufferPool pool(PoolOptions(4));
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  pool.Prefetch(file, a, &stats);
  EXPECT_TRUE(pool.Read(file, a, &stats));  // buffer hit, no new disk read
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(pool.prefetched_unconsumed(), 0u);
  // Only the first touch is a prefetch hit.
  pool.Read(file, a, &stats);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.buffer_hits, 2u);
}

TEST(PrefetchTest, DuplicatePrefetchesCoalesce) {
  Statistics stats;
  BufferPool pool(PoolOptions(4));
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_TRUE(pool.Prefetch(file, a, &stats));
  EXPECT_FALSE(pool.Prefetch(file, a, &stats));
  EXPECT_FALSE(pool.Prefetch(file, a, &stats));
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.disk_reads, 1u);
}

TEST(PrefetchTest, PrefetchOfAResidentOrPinnedPageIsANoop) {
  Statistics stats;
  BufferPool pool(PoolOptions(4));
  PagedFile file(kPageSize1K);
  const PageId read_first = file.Allocate();
  const PageId pinned = file.Allocate();
  pool.Read(file, read_first, &stats);
  pool.Pin(file, pinned, &stats);
  EXPECT_FALSE(pool.Prefetch(file, read_first, &stats));
  EXPECT_FALSE(pool.Prefetch(file, pinned, &stats));
  EXPECT_EQ(stats.prefetch_issued, 0u);
  pool.Unpin(file, pinned, &stats);
}

TEST(PrefetchTest, EvictedUnconsumedPrefetchCountsWasted) {
  Statistics stats;
  BufferPool pool(PoolOptions(2));
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  pool.Prefetch(file, a, &stats);
  pool.Read(file, b, &stats);
  pool.Read(file, c, &stats);  // evicts a, never consumed
  EXPECT_FALSE(pool.Contains(file, a));
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  EXPECT_EQ(pool.prefetched_unconsumed(), 0u);
  // A consumed page evicted later is NOT wasted.
  pool.Prefetch(file, a, &stats);
  pool.Read(file, a, &stats);
  pool.Read(file, b, &stats);
  pool.Read(file, c, &stats);  // evicts a again, this time consumed
  EXPECT_EQ(stats.prefetch_wasted, 1u);
}

TEST(PrefetchTest, PinnedPagesAreNeverEvictedByPrefetchPressure) {
  Statistics stats;
  BufferPool pool(PoolOptions(1));
  PagedFile file(kPageSize1K);
  const PageId pinned = file.Allocate();
  pool.Pin(file, pinned, &stats);
  for (int i = 0; i < 16; ++i) {
    pool.Prefetch(file, file.Allocate(), &stats);
  }
  EXPECT_TRUE(pool.Contains(file, pinned));
  EXPECT_EQ(pool.pinned_pages(), 1u);
  pool.Unpin(file, pinned, &stats);
}

TEST(PrefetchTest, PinningAPrefetchedFrameConsumesIt) {
  Statistics stats;
  BufferPool pool(PoolOptions(4));
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  pool.Prefetch(file, a, &stats);
  pool.Pin(file, a, &stats);  // promotion consumes the prefetch
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.disk_reads, 1u);  // no second physical read
  EXPECT_EQ(pool.prefetched_unconsumed(), 0u);
  pool.Unpin(file, a, &stats);
}

TEST(PrefetchTest, ZeroFramePoolIgnoresPrefetch) {
  Statistics stats;
  BufferPool pool(PoolOptions(0));
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_FALSE(pool.Prefetch(file, a, &stats));
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.disk_reads, 0u);
  EXPECT_FALSE(pool.Contains(file, a));
}

TEST(PrefetchTest, SchedulerBackedPrefetchSettlesModeledTime) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
  Statistics stats;
  BufferPool pool(PoolOptions(8));
  pool.AttachIoScheduler(&io);
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();  // disk 0
  const PageId b = file.Allocate();  // disk 1
  pool.Prefetch(file, a, &stats);
  pool.Prefetch(file, b, &stats);
  pool.Read(file, a, &stats);
  pool.Read(file, b, &stats);
  EXPECT_EQ(stats.prefetch_hits, 2u);
  // Both pages were serviced in parallel: one service time of stall, not
  // two (20000 us for a 1K page).
  EXPECT_EQ(stats.modeled_io_micros, 20000u);
  EXPECT_EQ(io.NowMicros(), 20000u);
}

TEST(PrefetchTest, ReReadAfterWastedEvictionPaysAGenuineRead) {
  // Regression: evicting a prefetched-unconsumed frame must invalidate
  // the scheduler's completion entry, otherwise a later miss on the page
  // is modeled as a free read (no disk_read, no stall) and counted as
  // both wasted and hit.
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  Statistics stats;
  BufferPool pool(PoolOptions(2));
  pool.AttachIoScheduler(&io);
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  pool.Prefetch(file, a, &stats);
  pool.Read(file, b, &stats);
  pool.Read(file, c, &stats);  // evicts a, unconsumed
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  const uint64_t reads_before = stats.disk_reads;
  const uint64_t stall_before = stats.modeled_io_micros;
  EXPECT_FALSE(pool.Read(file, a, &stats));  // a real miss again
  EXPECT_EQ(stats.disk_reads, reads_before + 1);
  EXPECT_GT(stats.modeled_io_micros, stall_before);
  EXPECT_EQ(stats.prefetch_hits, 0u);
}

TEST(PrefetchTest, PrefetcherBudgetCapsIssuedPages) {
  Statistics stats;
  BufferPool pool(PoolOptions(64));
  Prefetcher prefetcher(&pool, Prefetcher::Options{4});
  PagedFile file(kPageSize1K);
  std::vector<PageId> pages;
  for (int i = 0; i < 16; ++i) pages.push_back(file.Allocate());
  EXPECT_EQ(prefetcher.PrefetchSchedule(file, pages, &stats), 4u);
  EXPECT_EQ(stats.prefetch_issued, 4u);
  // Already-resident pages do not consume budget.
  EXPECT_EQ(prefetcher.PrefetchSchedule(file, pages, &stats), 4u);
  EXPECT_EQ(stats.prefetch_issued, 8u);
}

TEST(PrefetchTest, TwoSidedScheduleInterleaves) {
  Statistics stats;
  BufferPool pool(PoolOptions(64));
  Prefetcher prefetcher(&pool, Prefetcher::Options{3});
  PagedFile file_a(kPageSize1K);
  PagedFile file_b(kPageSize1K);
  std::vector<PageId> a{file_a.Allocate(), file_a.Allocate()};
  std::vector<PageId> b{file_b.Allocate(), file_b.Allocate()};
  // Budget 3 over the interleaving a0, b0, a1, b1.
  EXPECT_EQ(prefetcher.PrefetchSchedule(file_a, a, file_b, b, &stats), 3u);
  EXPECT_TRUE(pool.Contains(file_a, a[0]));
  EXPECT_TRUE(pool.Contains(file_b, b[0]));
  EXPECT_TRUE(pool.Contains(file_a, a[1]));
  EXPECT_FALSE(pool.Contains(file_b, b[1]));
}

// --- concurrency (TSan target) ---------------------------------------------

TEST(PrefetchTest, ConcurrentPrefetchReadPinTraffic) {
  PagedFile file(kPageSize1K);
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) pages.push_back(file.Allocate());
  BufferPool pool(BufferPool::Options{16 * kPageSize1K, kPageSize1K, 4});
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 4}});
  pool.AttachIoScheduler(&io);
  constexpr unsigned kThreads = 4;
  constexpr size_t kOpsPerThread = 4000;
  std::vector<Statistics> stats(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = 0x9e3779b97f4a7c15ULL + t;
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const PageId id = pages[(state >> 33) % pages.size()];
        switch (state % 4) {
          case 0:
            pool.Prefetch(file, id, &stats[t]);
            break;
          case 1:
          case 2:
            pool.Read(file, id, &stats[t]);
            break;
          case 3:
            pool.Pin(file, id, &stats[t]);
            pool.Read(file, id, &stats[t]);
            pool.Unpin(file, id, &stats[t]);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(pool.frames_in_use(), pool.frame_capacity());
  EXPECT_EQ(pool.pinned_pages(), 0u);
  Statistics total;
  for (const Statistics& s : stats) total.MergeFrom(s);
  EXPECT_GT(total.prefetch_issued, 0u);
  // Every issued prefetch ends consumed (hit), evicted (wasted) or still
  // resident, and only an issued prefetch lands a frame.
  EXPECT_EQ(total.prefetch_hits + total.prefetch_wasted +
                pool.prefetched_unconsumed(),
            total.prefetch_issued);
}

// --- executor equivalence with prefetching enabled -------------------------

TEST(PrefetchTest, ParallelJoinWithPrefetchMatchesSequential) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(testutil::ClusteredRects(1500, 991), topt);
  IndexedRelation s(testutil::ClusteredRects(1300, 992), topt);
  for (const JoinAlgorithm alg :
       {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
        JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
        JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5}) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    jopt.buffer_bytes = 32 * 1024;
    const auto sequential = RunSpatialJoin(r.tree(), s.tree(), jopt, true);
    const auto expected = testutil::Canonical(sequential.chunks);
    for (const unsigned threads : {2u, 4u}) {
      IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 4}});
      ParallelExecutorOptions exec;
      exec.num_threads = threads;
      exec.collect_pairs = true;
      exec.io_scheduler = &io;
      exec.prefetch = true;
      auto parallel = RunParallelSpatialJoin(r.tree(), s.tree(), jopt, exec);
      EXPECT_EQ(parallel.pair_count, sequential.pair_count)
          << JoinAlgorithmName(alg) << " threads=" << threads;
      EXPECT_EQ(testutil::Canonical(parallel.chunks), expected)
          << JoinAlgorithmName(alg) << " threads=" << threads;
      EXPECT_GT(parallel.total_stats.prefetch_issued, 0u)
          << JoinAlgorithmName(alg);
      EXPECT_GT(parallel.modeled_elapsed_micros, 0u);
    }
  }
}

TEST(PrefetchTest, OneThreadRunPrefetchesLikeTheSequentialJoin) {
  // The pinned executor paths' fixture (join_invariants_test's
  // JoinCounterPinTest: RandomRects 1601/1602, 1 KiB pages, a 16 KiB
  // buffer, SJ4). A one-thread run is one partition over a one-LRU pool;
  // with prefetch its engine streams the same read schedules through the
  // same 32-page budget as the sequential prefetching join.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation r(testutil::RandomRects(3000, 1601, 0.02), topt);
  const IndexedRelation s(testutil::RandomRects(2800, 1602, 0.02), topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 16 * 1024;
  for (const unsigned disks : {2u, 4u}) {
    IoScheduler sequential_io(
        IoScheduler::Options{.disks = {.disk_count = disks}});
    uint64_t sequential_micros = 0;
    const JoinRunResult sequential = RunSpatialJoinWithIo(
        r.tree(), s.tree(), jopt, &sequential_io, /*prefetch=*/true,
        /*prefetch_ahead=*/32, /*collect_pairs=*/true, &sequential_micros);

    IoScheduler io(IoScheduler::Options{.disks = {.disk_count = disks}});
    ParallelExecutorOptions exec;
    exec.num_threads = 1;
    exec.collect_pairs = true;
    exec.io_scheduler = &io;
    exec.prefetch = true;
    const ParallelJoinResult parallel =
        RunParallelSpatialJoin(r.tree(), s.tree(), jopt, exec);

    const Statistics& want = sequential.stats;
    const Statistics& got = parallel.total_stats;
    EXPECT_GT(want.prefetch_issued, 0u) << "disks=" << disks;
    EXPECT_EQ(parallel.pair_count, sequential.pair_count) << "disks=" << disks;
    EXPECT_EQ(got.disk_reads, want.disk_reads) << "disks=" << disks;
    EXPECT_EQ(got.prefetch_issued, want.prefetch_issued) << "disks=" << disks;
    EXPECT_EQ(got.prefetch_hits, want.prefetch_hits) << "disks=" << disks;
    EXPECT_EQ(got.prefetch_wasted, want.prefetch_wasted) << "disks=" << disks;
    EXPECT_EQ(got.node_decodes, want.node_decodes) << "disks=" << disks;
    EXPECT_EQ(parallel.modeled_elapsed_micros, sequential_micros)
        << "disks=" << disks;
  }
}

TEST(PrefetchTest, ParallelChainWithPrefetchMatchesOracle) {
  // Probe-root hints ride the shared prefetcher.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  std::vector<std::vector<Rect>> rects{
      testutil::ClusteredRects(500, 995, 5, 0.02),
      testutil::ClusteredRects(450, 996, 5, 0.02),
      testutil::ClusteredRects(400, 997, 5, 0.02),
  };
  std::vector<IndexedRelation> relations;
  for (const auto& r : rects) relations.emplace_back(r, topt);
  std::vector<JoinRelation> chain;
  for (size_t i = 0; i < relations.size(); ++i) {
    chain.push_back({&relations[i].tree(), &rects[i]});
  }
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const testutil::Tuples expected = testutil::ChainOracle(rects, jopt);

  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 4}});
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.io_scheduler = &io;
  exec.prefetch = true;
  auto parallel = RunParallelChainSpatialJoin(chain, jopt, exec, true);
  EXPECT_EQ(parallel.tuple_count, expected.size());
  EXPECT_EQ(testutil::Sorted(std::move(parallel.tuples)), expected);
  EXPECT_GT(parallel.total_stats.prefetch_issued, 0u);
  EXPECT_GT(parallel.modeled_elapsed_micros, 0u);
}

}  // namespace
}  // namespace rsj
