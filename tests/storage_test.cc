// Tests for the simulated storage layer: PagedFile allocation, LRU buffer
// pool semantics (hits/misses/eviction order), pinning (including the
// zero-frame case SJ4 relies on), and the paper's cost model constants.

#include <gtest/gtest.h>

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

TEST(BufferPoolTest, ClearDropsEverything) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K});
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  pool.Read(file, id, &stats);
  pool.Clear();
  EXPECT_FALSE(pool.Contains(file, id));
  EXPECT_EQ(pool.frames_in_use(), 0u);
}

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
