// Tests for the take-over a resident page carries in the buffer pool
// (BufferPool::Take at one and at eight shards): take-over and node cache
// hit accounting tied to page residency, the take-over moving with pins,
// a node accessor's re-read taking the page over again, prefetched and
// zero-frame pages, readers on other threads scanning pages in place on a
// sharded pool, and the pool's option guards.

#include <atomic>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "join/node_accessor.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"

namespace rsj {
namespace {

// Stores a one-entry leaf node in page `id`, so views are well-formed.
void StoreLeaf(PagedFile* file, PageId id, uint32_t ref) {
  const Entry entry{
      Rect{static_cast<Coord>(ref), 0.0f, static_cast<Coord>(ref + 1), 1.0f},
      ref};
  WriteNode(file, id, /*level=*/0, {&entry, 1});
}

// Allocates pages of `file` until `count` of them fall into the shard of
// the first (`PageKeyHash` modulo `shards`), each storing a one-entry leaf
// whose ref is its index in the result. Pages of other shards are left
// unused, so a pool with the same number of frames in every shard evicts
// the returned pages in the LRU order of a one-shard pool.
std::vector<PageId> MakeNodePages(PagedFile* file, int count, size_t shards) {
  std::vector<PageId> pages;
  size_t shard = 0;
  while (pages.size() < static_cast<size_t>(count)) {
    const PageId id = file->Allocate();
    const size_t s = PageKeyHash{}(PageKey{file, id}) % shards;
    if (pages.empty()) shard = s;
    if (s != shard) continue;
    StoreLeaf(file, id, static_cast<uint32_t>(pages.size()));
    pages.push_back(id);
  }
  return pages;
}

// A pool of `frames` 1 KiB frames in each of its `shards` shards.
std::unique_ptr<BufferPool> MakePool(size_t shards, uint64_t frames) {
  return std::make_unique<BufferPool>(
      BufferPool::Options{frames * shards * kPageSize1K, kPageSize1K, shards});
}

template <typename Shards>
class PoolTakeOverTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = Shards::value;
};

using ShardCounts = ::testing::Types<std::integral_constant<size_t, 1>,
                                     std::integral_constant<size_t, 8>>;
TYPED_TEST_SUITE(PoolTakeOverTest, ShardCounts);

TYPED_TEST(PoolTakeOverTest, TakenOverOnceWhilePageStaysResident) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 4);
  Statistics stats;

  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 1u);

  // Later requests find the page taken over.
  EXPECT_FALSE(pool->Take(file, pages[0], &stats));
  EXPECT_FALSE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 2u);
  // Take charges Read's counters.
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 2u);
}

TYPED_TEST(PoolTakeOverTest, PhysicalReReadIsTakenOverAgain) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 2, TestFixture::kShards);
  // One frame: the two pages evict each other on every request.
  const auto pool = MakePool(TestFixture::kShards, 1);
  Statistics stats;
  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(pool->Take(file, pages[1], &stats));
    EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  }
  // Every request was a page miss, so every request took its page over: a
  // take-over lasts only while its page stays buffer-resident.
  EXPECT_EQ(stats.node_decodes, 7u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 7u);
}

TYPED_TEST(PoolTakeOverTest, AccessorReReadTakesThePageOverAgain) {
  PagedFile file(kPageSize1K);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const RTree tree(&file, topt);
  const auto pages = MakeNodePages(&file, 2, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 1);
  Statistics a_stats;
  Statistics b_stats;
  Statistics other;
  NodeAccessor a(tree, pool.get(), &a_stats, /*sort_on_read=*/true);
  NodeAccessor b(tree, pool.get(), &b_stats, /*sort_on_read=*/true);

  // An ordered page is scanned in place: the view is the page's bytes.
  const VisitedNode visited = a.Visit(pages[0], 0);
  EXPECT_EQ(visited.node.entries.xl, ViewNode(file, pages[0]).entries.xl);
  EXPECT_EQ(visited.rects.xl, visited.node.entries.xl);
  pool->Read(file, pages[1], &other);  // evicts pages[0]
  ASSERT_FALSE(pool->Contains(file, pages[0]));
  // A's re-visit is a physical re-read: one read, one take-over (with its
  // sort), charged to A.
  EXPECT_EQ(a.Visit(pages[0], 0).node.entries.xl, visited.node.entries.xl);
  EXPECT_EQ(a_stats.disk_reads, 2u);
  EXPECT_EQ(a_stats.node_decodes, 2u);
  EXPECT_EQ(a_stats.sort_comparisons.count(), 0u);  // one-entry page
  // The re-read page stays taken over, so B's visit charges nothing.
  EXPECT_EQ(b.Visit(pages[0], 0).node.entries.ref[0], 0u);
  EXPECT_EQ(b_stats.buffer_hits, 1u);
  EXPECT_EQ(b_stats.node_cache_hits, 1u);
  EXPECT_EQ(b_stats.node_decodes, 0u);
  EXPECT_EQ(b_stats.sort_comparisons.count(), 0u);
}

TYPED_TEST(PoolTakeOverTest, ReadLeavesThePageUntaken) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 4);
  Statistics stats;
  // A plain page request never takes a page over: the first Take after it
  // does, as a buffer hit.
  EXPECT_FALSE(pool->Read(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 0u);
  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.buffer_hits, 1u);
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
}

TYPED_TEST(PoolTakeOverTest, PinAndUnpinCarryTheTakeOver) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 3, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 1);
  Statistics stats;
  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  // Pinning moves the page, take-over included, out of its frame.
  pool->Pin(file, pages[0], &stats);
  EXPECT_TRUE(pool->Take(file, pages[1], &stats));  // takes the only frame
  EXPECT_FALSE(pool->Take(file, pages[0], &stats));
  // Unpinning moves it back into a frame as the newest page.
  pool->Unpin(file, pages[0], &stats);
  EXPECT_FALSE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 2u);
  EXPECT_EQ(stats.node_cache_hits, 2u);

  // A page pinned before any request is read untaken; its first Take takes
  // it over and the pin keeps that.
  pool->Pin(file, pages[2], &stats);
  EXPECT_TRUE(pool->Take(file, pages[2], &stats));
  EXPECT_FALSE(pool->Take(file, pages[2], &stats));
  pool->Unpin(file, pages[2], &stats);
  EXPECT_EQ(stats.node_decodes, 3u);
}

TYPED_TEST(PoolTakeOverTest, PrefetchedFrameIsTakenOverByItsFirstTake) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 4);
  Statistics stats;
  ASSERT_TRUE(pool->Prefetch(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 0u);
  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_FALSE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 1u);
  EXPECT_EQ(stats.disk_reads, 1u);
}

TYPED_TEST(PoolTakeOverTest, ZeroFramePoolTakesOverOnEveryRequest) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 0);
  Statistics stats;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 4u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 4u);
  // A pinned page stays resident without frames, and so does its
  // take-over.
  pool->Pin(file, pages[0], &stats);
  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
  EXPECT_FALSE(pool->Take(file, pages[0], &stats));
  pool->Unpin(file, pages[0], &stats);
  EXPECT_EQ(stats.node_decodes, 5u);
  EXPECT_EQ(stats.node_cache_hits, 1u);
  EXPECT_TRUE(pool->Take(file, pages[0], &stats));
}

TEST(SharedPoolTakeOverTest, CrossThreadReuseAfterCoordinatorWarmup) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 32, 1);
  BufferPool pool(BufferPool::Options{64 * kPageSize1K, kPageSize1K, 8});

  // The "coordinator" takes every page over once.
  Statistics coordinator;
  for (const PageId id : pages) pool.Take(file, id, &coordinator);
  EXPECT_EQ(coordinator.node_decodes, pages.size());

  // "Workers" then request the same pages concurrently and scan their
  // bytes in place without a lock: no page is taken over again.
  constexpr unsigned kThreads = 4;
  std::vector<Statistics> stats(kThreads);
  std::vector<uint64_t> ref_sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 50; ++round) {
        for (const PageId id : pages) {
          EXPECT_FALSE(pool.Take(file, id, &stats[t]));
          ref_sums[t] += ViewNode(file, id).entries.ref[0];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t ref_sum = 50u * pages.size() * (pages.size() - 1) / 2;
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stats[t].node_decodes, 0u);
    EXPECT_EQ(stats[t].node_cache_hits, 50u * pages.size());
    EXPECT_EQ(stats[t].disk_reads, 0u);
    EXPECT_EQ(ref_sums[t], ref_sum);
  }
}

TEST(SharedPoolTakeOverTest, ConcurrentFirstRequestsTakeOverOnce) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, 1);
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  constexpr unsigned kThreads = 8;
  std::vector<Statistics> stats(kThreads);
  std::vector<char> took_over(kThreads, 0);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      took_over[t] = pool.Take(file, pages[0], &stats[t]) ? 1 : 0;
    });
  }
  for (auto& t : threads) t.join();
  uint64_t takeovers = 0;
  uint64_t decodes = 0;
  uint64_t hits = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    takeovers += took_over[t];
    decodes += stats[t].node_decodes;
    hits += stats[t].node_cache_hits;
  }
  EXPECT_EQ(takeovers, 1u);
  EXPECT_EQ(decodes, 1u);
  EXPECT_EQ(hits, kThreads - 1);
}

// --- option guards ----------------------------------------------------------

TEST(BufferPoolDeathTest, RejectsZeroPageSize) {
  EXPECT_DEATH(BufferPool(BufferPool::Options{128 * 1024, 0, 4}), "page size");
}

TEST(BufferPoolDeathTest, RejectsZeroShards) {
  EXPECT_DEATH(BufferPool(BufferPool::Options{128 * 1024, kPageSize1K, 0}),
               "shard");
}

}  // namespace
}  // namespace rsj
