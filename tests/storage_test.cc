// Tests for the simulated storage layer: PagedFile allocation, LRU buffer
// pool semantics (hits/misses/eviction order), pinning (including the
// zero-frame case SJ4 relies on), the pool's shards under concurrent
// callers, and the paper's cost model constants.

#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/cost_model.h"
#include "storage/paged_file.h"

namespace rsj {
namespace {

TEST(PagedFileTest, AllocateSequentialIds) {
  PagedFile file(kPageSize1K);
  EXPECT_EQ(file.Allocate(), 0u);
  EXPECT_EQ(file.Allocate(), 1u);
  EXPECT_EQ(file.Allocate(), 2u);
  EXPECT_EQ(file.allocated_pages(), 3u);
  EXPECT_EQ(file.live_pages(), 3u);
}

TEST(PagedFileTest, PagesAreZeroInitialized) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  const std::byte* data = file.PageData(id);
  for (uint32_t i = 0; i < file.page_size(); ++i) {
    ASSERT_EQ(data[i], std::byte{0});
  }
}

TEST(PagedFileTest, WritesPersist) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  file.MutablePageData(id)[17] = std::byte{0xAB};
  EXPECT_EQ(file.PageData(id)[17], std::byte{0xAB});
}

TEST(PagedFileTest, FreeListReusesAndZeroes) {
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  file.MutablePageData(a)[0] = std::byte{0xFF};
  file.Free(a);
  EXPECT_EQ(file.live_pages(), 0u);
  const PageId b = file.Allocate();
  EXPECT_EQ(b, a);  // reused
  EXPECT_EQ(file.PageData(b)[0], std::byte{0});  // zeroed again
}

TEST(BufferPoolTest, FrameCapacityFromBytes) {
  EXPECT_EQ(BufferPool(BufferPool::Options{0, kPageSize1K}).frame_capacity(),
            0u);
  EXPECT_EQ(
      BufferPool(BufferPool::Options{8 * 1024, kPageSize1K}).frame_capacity(),
      8u);
  EXPECT_EQ(
      BufferPool(BufferPool::Options{8 * 1024, kPageSize8K}).frame_capacity(),
      1u);
  EXPECT_EQ(BufferPool(BufferPool::Options{512, kPageSize1K}).frame_capacity(),
            0u);  // budget below one page
}

TEST(BufferPoolTest, ZeroFramesEveryReadIsDiskAccess) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{0, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  for (int i = 0; i < 5; ++i) pool.Read(file, id, &stats);
  EXPECT_EQ(stats.disk_reads, 5u);
  EXPECT_EQ(stats.buffer_hits, 0u);
}

TEST(BufferPoolTest, HitOnSecondRead) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  EXPECT_FALSE(pool.Read(file, id, &stats));  // miss
  EXPECT_TRUE(pool.Read(file, id, &stats));   // hit
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 1u);
}

TEST(BufferPoolTest, LruEvictionOrder) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{2 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  pool.Read(file, a, &stats);  // miss
  pool.Read(file, b, &stats);  // miss
  pool.Read(file, c, &stats);  // miss, evicts a (LRU)
  EXPECT_FALSE(pool.Contains(file, a));
  EXPECT_TRUE(pool.Contains(file, b));
  EXPECT_TRUE(pool.Contains(file, c));
  EXPECT_EQ(stats.buffer_evictions, 1u);
}

TEST(BufferPoolTest, ReadRefreshesRecency) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{2 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  pool.Read(file, a, &stats);
  pool.Read(file, b, &stats);
  pool.Read(file, a, &stats);  // refresh a → b becomes LRU
  pool.Read(file, c, &stats);  // evicts b
  EXPECT_TRUE(pool.Contains(file, a));
  EXPECT_FALSE(pool.Contains(file, b));
  EXPECT_TRUE(pool.Contains(file, c));
}

TEST(BufferPoolTest, PagesOfDifferentFilesDoNotCollide) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{8 * kPageSize1K, kPageSize1K});
  PagedFile file1(kPageSize1K);
  PagedFile file2(kPageSize1K);
  const PageId a1 = file1.Allocate();
  const PageId a2 = file2.Allocate();
  ASSERT_EQ(a1, a2);  // same numeric id in different files
  pool.Read(file1, a1, &stats);
  EXPECT_FALSE(pool.Contains(file2, a2));
  EXPECT_FALSE(pool.Read(file2, a2, &stats));  // still a miss
  EXPECT_EQ(stats.disk_reads, 2u);
}

TEST(BufferPoolTest, PinnedPageSurvivesZeroFramePool) {
  // SJ4's pinning must work even with a zero-size LRU buffer (§4.3):
  // the algorithm itself holds the pinned page.
  Statistics stats;
  BufferPool pool(BufferPool::Options{0, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  pool.Pin(file, id, &stats);  // absent → counted read, then pinned
  EXPECT_EQ(stats.disk_reads, 1u);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(pool.Read(file, id, &stats));
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 7u);
  pool.Unpin(file, id, &stats);
  // Zero frames: after unpinning the page is gone.
  EXPECT_FALSE(pool.Contains(file, id));
  EXPECT_FALSE(pool.Read(file, id, &stats));
  EXPECT_EQ(stats.disk_reads, 2u);
}

TEST(BufferPoolTest, PinPromotesResidentPageWithoutRead) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{2 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  pool.Read(file, id, &stats);
  EXPECT_EQ(stats.disk_reads, 1u);
  pool.Pin(file, id, &stats);  // already resident: no extra disk read
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.pin_count, 1u);
  pool.Unpin(file, id, &stats);
  EXPECT_TRUE(pool.Contains(file, id));  // back in the LRU frames
}

TEST(BufferPoolTest, PinnedPageNotEvicted) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{1 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId pinned = file.Allocate();
  const PageId other1 = file.Allocate();
  const PageId other2 = file.Allocate();
  pool.Pin(file, pinned, &stats);
  pool.Read(file, other1, &stats);
  pool.Read(file, other2, &stats);  // churns the single frame
  EXPECT_TRUE(pool.Contains(file, pinned));
  EXPECT_TRUE(pool.Read(file, pinned, &stats));  // still a hit
  pool.Unpin(file, pinned, &stats);
}

TEST(BufferPoolTest, NestedPins) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{0, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  pool.Pin(file, id, &stats);
  pool.Pin(file, id, &stats);
  pool.Unpin(file, id, &stats);
  EXPECT_TRUE(pool.Contains(file, id));  // one pin still outstanding
  pool.Unpin(file, id, &stats);
  EXPECT_FALSE(pool.Contains(file, id));
}

TEST(BufferPoolTest, UnpinnedPageEntersLruAsMru) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{2 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  const PageId c = file.Allocate();
  pool.Read(file, a, &stats);
  pool.Pin(file, b, &stats);
  pool.Unpin(file, b, &stats);  // b is MRU now, a is LRU
  pool.Read(file, c, &stats);   // evicts a
  EXPECT_FALSE(pool.Contains(file, a));
  EXPECT_TRUE(pool.Contains(file, b));
}

TEST(BufferPoolTest, HitOnSecondReadAndPerCallerAttribution) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K, 4});
  Statistics worker_a;
  Statistics worker_b;
  EXPECT_FALSE(pool.Read(file, id, &worker_a));  // miss, charged to A
  EXPECT_TRUE(pool.Read(file, id, &worker_b));   // hit, charged to B
  EXPECT_EQ(worker_a.disk_reads, 1u);
  EXPECT_EQ(worker_a.buffer_hits, 0u);
  EXPECT_EQ(worker_b.disk_reads, 0u);
  EXPECT_EQ(worker_b.buffer_hits, 1u);
}

TEST(BufferPoolTest, FrameBudgetSplitsOverShards) {
  BufferPool pool(BufferPool::Options{10 * kPageSize1K, kPageSize1K, 4});
  EXPECT_EQ(pool.frame_capacity(), 10u);
  EXPECT_EQ(pool.shard_count(), 4u);
}

TEST(BufferPoolTest, PinnedPageSurvivesEvictionPressure) {
  PagedFile file(kPageSize1K);
  const PageId pinned = file.Allocate();
  std::vector<PageId> others;
  for (int i = 0; i < 16; ++i) others.push_back(file.Allocate());
  // One frame in one shard: maximal eviction pressure.
  BufferPool pool(BufferPool::Options{1 * kPageSize1K, kPageSize1K, 1});
  Statistics stats;
  pool.Pin(file, pinned, &stats);
  for (const PageId id : others) pool.Read(file, id, &stats);
  EXPECT_TRUE(pool.Contains(file, pinned));
  pool.Unpin(file, pinned, &stats);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(BufferPoolTest, PinsNestAcrossCallers) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  BufferPool pool(BufferPool::Options{0, kPageSize1K, 2});
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

TEST(BufferPoolTest, ConcurrentReadersAccountConsistently) {
  PagedFile file(kPageSize1K);
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) pages.push_back(file.Allocate());
  BufferPool pool(BufferPool::Options{32 * kPageSize1K, kPageSize1K, 8});
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

// Four threads share one pool of 16 frames over 64 pages at one and at
// eight shards. Each takes and prefetches "cold" pages under eviction
// pressure, and pins, takes and unpins "hot" pages that the main thread
// keeps pinned throughout, reading each hot page's bytes in place.
class BufferPoolConcurrencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferPoolConcurrencyTest, TakePinUnpinPrefetchAccountPerCaller) {
  PagedFile file(kPageSize1K);
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 64; ++i) {
    const PageId id = file.Allocate();
    const Entry entry{Rect{0.0f, 0.0f, 1.0f, 1.0f}, i};
    WriteNode(&file, id, /*level=*/0, {&entry, 1});
    pages.push_back(id);
  }
  const std::vector<PageId> hot(pages.begin(), pages.begin() + 8);
  const std::vector<PageId> cold(pages.begin() + 8, pages.end());
  BufferPool pool(BufferPool::Options{16 * kPageSize1K, kPageSize1K,
                                      GetParam()});
  Statistics main_stats;
  for (const PageId id : hot) pool.Pin(file, id, &main_stats);

  constexpr unsigned kThreads = 4;
  constexpr size_t kOpsPerThread = 4000;
  struct Caller {
    Statistics cold;
    Statistics hot;
    uint64_t cold_fetches = 0;
    uint64_t prefetches_issued = 0;
    uint64_t hot_fetches = 0;
    uint64_t pins = 0;
    std::set<PageId> hot_fetched;
  };
  std::vector<Caller> callers(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Caller& c = callers[t];
      uint64_t state = 0x9e3779b97f4a7c15ULL + t;
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint64_t op = (state >> 33) & 3;
        const uint64_t slot = state >> 35;
        if (op == 0) {
          pool.Take(file, cold[slot % cold.size()], &c.cold);
          ++c.cold_fetches;
        } else if (op == 1) {
          if (pool.Prefetch(file, cold[slot % cold.size()], &c.cold)) {
            ++c.prefetches_issued;
          }
        } else {
          // op 2 pins the hot page around its request, nested over the
          // main thread's pin.
          const PageId id = hot[slot % hot.size()];
          if (op == 2) {
            pool.Pin(file, id, &c.hot);
            ++c.pins;
          }
          pool.Take(file, id, &c.hot);
          EXPECT_EQ(ViewNode(file, id).entries.ref[0], id);
          ++c.hot_fetches;
          c.hot_fetched.insert(id);
          if (op == 2) pool.Unpin(file, id, &c.hot);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<PageId> hot_fetched;
  uint64_t hot_takeovers = 0;
  for (const Caller& c : callers) {
    // Every page request counts one hit or one read against its caller; a
    // prefetch that lands a page counts one read.
    EXPECT_EQ(c.cold.buffer_hits + c.cold.disk_reads,
              c.cold_fetches + c.prefetches_issued);
    EXPECT_EQ(c.cold.prefetch_issued, c.prefetches_issued);
    // The hot pages never left: every request hit, and every pin nested.
    EXPECT_EQ(c.hot.buffer_hits, c.hot_fetches);
    EXPECT_EQ(c.hot.disk_reads, 0u);
    EXPECT_EQ(c.hot.pin_count, c.pins);
    hot_takeovers += c.hot.node_decodes;
    hot_fetched.insert(c.hot_fetched.begin(), c.hot_fetched.end());
  }
  // A page that stays resident is taken over once, by whichever request
  // came first.
  EXPECT_EQ(hot_takeovers, hot_fetched.size());
  EXPECT_EQ(pool.pinned_pages(), hot.size());
  EXPECT_LE(pool.frames_in_use(), pool.frame_capacity());
  // The main pins still hold the hot pages; releasing them frees the pins.
  for (const PageId id : hot) {
    EXPECT_TRUE(pool.Contains(file, id));
    pool.Unpin(file, id, &main_stats);
  }
  EXPECT_EQ(pool.pinned_pages(), 0u);
  EXPECT_EQ(main_stats.disk_reads, hot.size());
}

INSTANTIATE_TEST_SUITE_P(Shards, BufferPoolConcurrencyTest,
                         ::testing::Values(size_t{1}, size_t{8}));

TEST(StatisticsTest, ResetClearsEverything) {
  Statistics stats;
  stats.disk_reads = 5;
  stats.join_comparisons.Add(100);
  stats.output_pairs = 3;
  stats.Reset();
  EXPECT_EQ(stats.disk_reads, 0u);
  EXPECT_EQ(stats.join_comparisons.count(), 0u);
  EXPECT_EQ(stats.output_pairs, 0u);
}

TEST(StatisticsTest, TotalComparisonsSumsCounters) {
  Statistics stats;
  stats.join_comparisons.Add(10);
  stats.sort_comparisons.Add(20);
  stats.schedule_comparisons.Add(30);
  EXPECT_EQ(stats.TotalComparisons(), 60u);
}

TEST(StatisticsTest, HitRate) {
  Statistics stats;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.0);
  stats.disk_reads = 1;
  stats.buffer_hits = 3;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.75);
}

// --- Cost model: the paper's §4.1 constants ---

TEST(CostModelTest, PaperConstants) {
  const CostModel model;
  EXPECT_DOUBLE_EQ(model.positioning_seconds, 1.5e-2);
  EXPECT_DOUBLE_EQ(model.transfer_seconds_per_kbyte, 5.0e-3);
  EXPECT_DOUBLE_EQ(model.comparison_seconds, 3.9e-6);
}

TEST(CostModelTest, IoSecondsPerPageSize) {
  const CostModel model;
  // 1 KByte page: 15 ms positioning + 5 ms transfer = 20 ms per access.
  EXPECT_NEAR(model.IoSeconds(1, kPageSize1K), 0.020, 1e-12);
  // 8 KByte page: 15 ms + 40 ms = 55 ms per access.
  EXPECT_NEAR(model.IoSeconds(1, kPageSize8K), 0.055, 1e-12);
  EXPECT_NEAR(model.IoSeconds(100, kPageSize4K), 100 * 0.035, 1e-9);
}

TEST(CostModelTest, CpuSeconds) {
  const CostModel model;
  EXPECT_NEAR(model.CpuSeconds(1'000'000), 3.9, 1e-9);
}

TEST(CostModelTest, TotalCombinesAllCounters) {
  const CostModel model;
  Statistics stats;
  stats.disk_reads = 10;
  stats.join_comparisons.Add(1000);
  stats.sort_comparisons.Add(500);
  const double expected = model.IoSeconds(10, kPageSize2K) +
                          model.CpuSeconds(1500);
  EXPECT_NEAR(model.TotalSeconds(stats, kPageSize2K), expected, 1e-12);
}

// Sanity check of the paper's own Figure 2 arithmetic: SJ1 at 1 KByte with
// no buffer (24,727 accesses, 33.57M comparisons) should come out I/O- and
// CPU-balanced at roughly 495 + 131 seconds.
TEST(CostModelTest, ReproducesFigure2Arithmetic) {
  const CostModel model;
  const double io = model.IoSeconds(24727, kPageSize1K);
  const double cpu = model.CpuSeconds(33566961);
  EXPECT_NEAR(io, 494.54, 0.5);
  EXPECT_NEAR(cpu, 130.91, 0.5);
}

}  // namespace
}  // namespace rsj
