// Tests for the shared decoded-node cache: hit/decode accounting tied to
// page residency, cross-thread reuse, the once-built sorted form (the
// decode itself when the page is in xl order), the eviction bound, and
// the option guards of both concurrent caches.

#include "storage/node_cache.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rtree/node.h"
#include "storage/buffer_pool.h"
#include "storage/shared_buffer_pool.h"

namespace rsj {
namespace {

// Allocates `count` pages of `file`, each storing a one-entry leaf node so
// decodes are well-formed.
std::vector<PageId> MakeNodePages(PagedFile* file, int count) {
  std::vector<PageId> pages;
  for (int i = 0; i < count; ++i) {
    const PageId id = file->Allocate();
    Node node;
    node.level = 0;
    node.entries.push_back(Entry{
        Rect{static_cast<Coord>(i), 0.0f, static_cast<Coord>(i + 1), 1.0f},
        static_cast<uint32_t>(i)});
    node.Store(file, id);
    pages.push_back(id);
  }
  return pages;
}

TEST(NodeCacheTest, DecodesOnceWhilePageStaysResident) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1);
  SharedBufferPool pool(
      SharedBufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  NodeCache cache(&pool, NodeCache::Options{16, 2});
  Statistics stats;

  const auto first = cache.Fetch(file, pages[0], &stats);
  EXPECT_FALSE(first.page_hit);
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  ASSERT_EQ(first.node().entries.size(), 1u);
  EXPECT_EQ(first.node().entries[0].ref, 0u);
  // The SoA block is built with the decode, in entry order.
  ASSERT_EQ(first.block().size(), 1u);
  EXPECT_EQ(first.block().RectAt(0), first.node().entries[0].rect);

  const auto second = cache.Fetch(file, pages[0], &stats);
  EXPECT_TRUE(second.page_hit);
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 1u);
  // The decode is shared, not copied.
  EXPECT_EQ(first.decoded.get(), second.decoded.get());
  // The page layer was charged normally underneath.
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 1u);
}

TEST(NodeCacheTest, PhysicalReReadForcesReDecode) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 2);
  // One frame in one shard: the two pages evict each other on every read.
  SharedBufferPool pool(
      SharedBufferPool::Options{1 * kPageSize1K, kPageSize1K, 1});
  NodeCache cache(&pool, NodeCache::Options{16, 1});
  Statistics stats;
  for (int round = 0; round < 3; ++round) {
    cache.Fetch(file, pages[0], &stats);
    cache.Fetch(file, pages[1], &stats);
  }
  // Every fetch was a page miss, so every fetch re-decoded: a cached
  // decode is only valid while its page stays buffer-resident.
  EXPECT_EQ(stats.node_decodes, 6u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 6u);
}

TEST(NodeCacheTest, CrossThreadReuseAfterCoordinatorWarmup) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 32);
  SharedBufferPool pool(
      SharedBufferPool::Options{64 * kPageSize1K, kPageSize1K, 8});
  NodeCache cache(&pool, NodeCache::Options{64, 8});

  // The "coordinator" decodes every page once.
  Statistics coordinator;
  for (const PageId id : pages) cache.Fetch(file, id, &coordinator);
  EXPECT_EQ(coordinator.node_decodes, pages.size());

  // "Workers" then fetch the same pages concurrently: all decodes are
  // served from the shared cache, none re-decoded.
  constexpr unsigned kThreads = 4;
  std::vector<Statistics> stats(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 50; ++round) {
        for (const PageId id : pages) cache.Fetch(file, id, &stats[t]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Statistics& st : stats) {
    EXPECT_EQ(st.node_decodes, 0u);
    EXPECT_EQ(st.node_cache_hits, 50u * pages.size());
  }
}

TEST(NodeCacheTest, ConcurrentFirstSortBuildsOneSortedForm) {
  // One leaf whose entries are out of xl order, with ties, so the sort
  // moves entries and its stability shows.
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node stored;
  for (uint32_t i = 0; i < 40; ++i) {
    const auto xl = static_cast<Coord>((i * 7) % 13);
    stored.entries.push_back(Entry{Rect{xl, 0.0f, xl + 1.0f, 1.0f}, i});
  }
  stored.Store(&file, id);
  SharedBufferPool pool(
      SharedBufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  NodeCache cache(&pool, NodeCache::Options{16, 2});

  Statistics first;
  const auto decoded = cache.Fetch(file, id, &first).decoded;
  ASSERT_EQ(first.node_decodes, 1u);
  const std::vector<Entry> page_order = decoded->node.entries;
  const RectBlock page_block = decoded->block;

  // Eight readers ask for the sorted form of the cold decode at once.
  constexpr unsigned kThreads = 8;
  std::vector<Statistics> stats(kThreads);
  std::vector<const DecodedNode::Sorted*> seen(kThreads, nullptr);
  std::vector<const RectBlock*> blocks(kThreads, nullptr);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const auto mine = cache.Fetch(file, id, &stats[t]).decoded;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &mine->sorted();
      blocks[t] = mine->sorted().block;
    });
  }
  for (auto& t : threads) t.join();

  uint64_t decodes = first.node_decodes;
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    EXPECT_EQ(blocks[t], blocks[0]);
    decodes += stats[t].node_decodes;
  }
  EXPECT_EQ(decodes, 1u);
  const DecodedNode::Sorted& sorted = *seen[0];
  EXPECT_EQ(&sorted, &decoded->sorted());

  std::vector<Entry> expected = page_order;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.rect.xl < b.rect.xl;
                   });
  ASSERT_NE(expected, page_order) << "the page must need sorting";
  EXPECT_EQ(sorted.node->entries, expected);
  EXPECT_EQ(sorted.node->level, decoded->node.level);
  ASSERT_EQ(sorted.block->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sorted.block->RectAt(i), expected[i].rect);
    EXPECT_EQ(sorted.block->index_at(i), i);
  }
  std::vector<Entry> resorted = page_order;
  EXPECT_EQ(sorted.sort_cost, InsertionSortByLowerX(&resorted));
  EXPECT_EQ(resorted, expected);
  EXPECT_GT(sorted.sort_cost, expected.size() - 1);

  // The page-order decode is untouched.
  EXPECT_EQ(decoded->node.entries, page_order);
  ASSERT_EQ(decoded->block.size(), page_block.size());
  for (size_t i = 0; i < page_block.size(); ++i) {
    EXPECT_EQ(decoded->block.RectAt(i), page_block.RectAt(i));
    EXPECT_EQ(decoded->block.index_at(i), page_block.index_at(i));
  }
}

TEST(NodeCacheTest, OrderedPageSharesItsDecode) {
  // A leaf already in xl order, with ties: its sorted form is the decode
  // itself, at the insertion sort's cost on ordered input.
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node stored;
  for (uint32_t i = 0; i < 40; ++i) {
    const auto xl = static_cast<Coord>(i / 3);
    stored.entries.push_back(Entry{Rect{xl, 0.0f, xl + 1.0f, 1.0f}, i});
  }
  stored.Store(&file, id);
  SharedBufferPool pool(
      SharedBufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  NodeCache cache(&pool, NodeCache::Options{16, 2});
  Statistics first;
  const auto decoded = cache.Fetch(file, id, &first).decoded;

  // Eight readers ask for the sorted form of the cold decode at once.
  constexpr unsigned kThreads = 8;
  std::vector<Statistics> stats(kThreads);
  std::vector<const DecodedNode::Sorted*> seen(kThreads, nullptr);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const auto mine = cache.Fetch(file, id, &stats[t]).decoded;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &mine->sorted();
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);

  const DecodedNode::Sorted& sorted = decoded->sorted();
  EXPECT_EQ(&sorted, seen[0]);
  EXPECT_EQ(sorted.node, &decoded->node);
  EXPECT_EQ(sorted.block, &decoded->block);
  const size_t n = stored.entries.size();
  EXPECT_EQ(sorted.sort_cost, n - 1);
  std::vector<Entry> resorted = decoded->node.entries;
  EXPECT_EQ(InsertionSortByLowerX(&resorted), n - 1);
  EXPECT_EQ(resorted, decoded->node.entries);
}

TEST(NodeCacheTest, EvictionBoundHolds) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 64);
  SharedBufferPool pool(
      SharedBufferPool::Options{128 * kPageSize1K, kPageSize1K, 4});
  NodeCache cache(&pool, NodeCache::Options{8, 4});
  Statistics stats;
  for (const PageId id : pages) cache.Fetch(file, id, &stats);
  EXPECT_LE(cache.node_count(), cache.capacity_nodes());
  EXPECT_EQ(stats.node_decodes, pages.size());

  cache.Clear();
  EXPECT_EQ(cache.node_count(), 0u);
  // Pages are still buffer-resident, so re-fetching decodes again (the
  // decode was dropped, not the page).
  const auto res = cache.Fetch(file, pages.back(), &stats);
  EXPECT_TRUE(res.page_hit);
  EXPECT_EQ(stats.node_decodes, pages.size() + 1);
}

TEST(NodeCacheTest, NodeEvictionTriggersReDecodeDespiteResidentPage) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 4);
  SharedBufferPool pool(
      SharedBufferPool::Options{16 * kPageSize1K, kPageSize1K, 1});
  // Single shard with room for one decode: fetching page B evicts A's.
  NodeCache cache(&pool, NodeCache::Options{1, 1});
  Statistics stats;
  cache.Fetch(file, pages[0], &stats);
  cache.Fetch(file, pages[1], &stats);  // evicts pages[0]'s decode
  cache.Fetch(file, pages[0], &stats);  // page hit, decode gone
  EXPECT_EQ(stats.node_decodes, 3u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 2u);
  EXPECT_EQ(stats.buffer_hits, 1u);
}

// --- option guards (shared pool + node cache) ------------------------------

TEST(NodeCacheDeathTest, RejectsZeroShards) {
  SharedBufferPool pool(
      SharedBufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  EXPECT_DEATH(NodeCache(&pool, NodeCache::Options{16, 0}), "zero-shard");
}

TEST(NodeCacheDeathTest, RejectsZeroCapacity) {
  SharedBufferPool pool(
      SharedBufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  EXPECT_DEATH(NodeCache(&pool, NodeCache::Options{0, 2}), "zero-capacity");
}

TEST(SharedBufferPoolDeathTest, RejectsZeroPageSize) {
  EXPECT_DEATH(SharedBufferPool(SharedBufferPool::Options{128 * 1024, 0, 4}),
               "page size");
}

TEST(SharedBufferPoolDeathTest, RejectsZeroShards) {
  EXPECT_DEATH(SharedBufferPool(SharedBufferPool::Options{
                   128 * 1024, kPageSize1K, 0}),
               "shard");
}

}  // namespace
}  // namespace rsj
