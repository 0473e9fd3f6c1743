// Tests for the decodes resident pages carry (BufferPool::Fetch at one
// and at eight shards): hit/decode accounting tied to page residency,
// decodes moving with pins, a node accessor's re-read leaving its decode
// with the page, prefetched and zero-frame pages, cross-thread reuse on a
// sharded pool, the once-built sorted form (the decode itself when the
// page is in xl order), and the pool's option guards.

#include "storage/decoded_node.h"

#include <algorithm>
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

// Stores a one-entry leaf node in page `id`, so decodes are well-formed.
void StoreLeaf(PagedFile* file, PageId id, uint32_t ref) {
  Node node;
  node.level = 0;
  node.entries.push_back(Entry{
      Rect{static_cast<Coord>(ref), 0.0f, static_cast<Coord>(ref + 1), 1.0f},
      ref});
  node.Store(file, id);
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
class PoolDecodeTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = Shards::value;
};

using ShardCounts = ::testing::Types<std::integral_constant<size_t, 1>,
                                     std::integral_constant<size_t, 8>>;
TYPED_TEST_SUITE(PoolDecodeTest, ShardCounts);

TYPED_TEST(PoolDecodeTest, DecodesOnceWhilePageStaysResident) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 4);
  Statistics stats;

  const FetchedNode first = pool->Fetch(file, pages[0], &stats);
  EXPECT_FALSE(first.page_hit);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  ASSERT_EQ(first.decoded->node.entries.size(), 1u);
  EXPECT_EQ(first.decoded->node.entries[0].ref, 0u);
  // The SoA block is built with the decode, in entry order.
  ASSERT_EQ(first.decoded->block.size(), 1u);
  EXPECT_EQ(first.decoded->block.RectAt(0),
            first.decoded->node.entries[0].rect);

  const FetchedNode second = pool->Fetch(file, pages[0], &stats);
  EXPECT_TRUE(second.page_hit);
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 1u);
  // The decode is shared, not copied.
  EXPECT_EQ(first.decoded.get(), second.decoded.get());
  // Fetch charges Read's counters.
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.buffer_hits, 1u);
}

TYPED_TEST(PoolDecodeTest, PhysicalReReadForcesReDecode) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 2, TestFixture::kShards);
  // One frame: the two pages evict each other on every fetch.
  const auto pool = MakePool(TestFixture::kShards, 1);
  Statistics stats;
  const FetchedNode held = pool->Fetch(file, pages[0], &stats);
  for (int round = 0; round < 3; ++round) {
    pool->Fetch(file, pages[1], &stats);
    const FetchedNode again = pool->Fetch(file, pages[0], &stats);
    EXPECT_TRUE(again.fresh);
    // The holder's decode outlives the eviction; the re-read is new.
    EXPECT_NE(again.decoded.get(), held.decoded.get());
  }
  // Every fetch was a page miss, so every fetch re-decoded: a decode lives
  // only while its page stays buffer-resident.
  EXPECT_EQ(stats.node_decodes, 7u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 7u);
  EXPECT_EQ(held.decoded->node.entries[0].ref, 0u);
}

TYPED_TEST(PoolDecodeTest, AccessorReReadLeavesItsDecodeWithThePage) {
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

  const Node& visited = a.Fetch(pages[0]);
  pool->Read(file, pages[1], &other);  // evicts pages[0]
  ASSERT_FALSE(pool->Contains(file, pages[0]));
  // A's re-visit is a physical re-read: one read, one decode, charged to A.
  EXPECT_EQ(&a.Fetch(pages[0]), &visited);
  EXPECT_EQ(a_stats.disk_reads, 2u);
  EXPECT_EQ(a_stats.node_decodes, 2u);
  // The re-read page carries A's decode, so B's first visit shares it.
  EXPECT_EQ(&b.Fetch(pages[0]), &visited);
  EXPECT_EQ(b_stats.buffer_hits, 1u);
  EXPECT_EQ(b_stats.node_cache_hits, 1u);
  EXPECT_EQ(b_stats.node_decodes, 0u);
  EXPECT_EQ(b_stats.sort_comparisons.count(), 0u);
}

TYPED_TEST(PoolDecodeTest, ReadAndClearLeaveNoDecode) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 4);
  Statistics stats;
  // A plain page request never decodes: the first fetch after it does.
  EXPECT_FALSE(pool->Read(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 0u);
  const FetchedNode first = pool->Fetch(file, pages[0], &stats);
  EXPECT_TRUE(first.page_hit);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(stats.node_decodes, 1u);

  // Clear drops the page and its decode.
  pool->Clear();
  const FetchedNode after = pool->Fetch(file, pages[0], &stats);
  EXPECT_FALSE(after.page_hit);
  EXPECT_TRUE(after.fresh);
  EXPECT_EQ(stats.node_decodes, 2u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
}

TYPED_TEST(PoolDecodeTest, PinAndUnpinCarryTheDecode) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 3, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 1);
  Statistics stats;
  const FetchedNode first = pool->Fetch(file, pages[0], &stats);
  // Pinning moves the page, decode included, out of its frame.
  pool->Pin(file, pages[0], &stats);
  pool->Fetch(file, pages[1], &stats);  // takes the only frame
  const FetchedNode pinned = pool->Fetch(file, pages[0], &stats);
  EXPECT_TRUE(pinned.page_hit);
  EXPECT_FALSE(pinned.fresh);
  EXPECT_EQ(pinned.decoded.get(), first.decoded.get());
  // Unpinning moves it back into a frame as the newest page.
  pool->Unpin(file, pages[0], &stats);
  const FetchedNode unpinned = pool->Fetch(file, pages[0], &stats);
  EXPECT_TRUE(unpinned.page_hit);
  EXPECT_EQ(unpinned.decoded.get(), first.decoded.get());
  EXPECT_EQ(stats.node_decodes, 2u);
  EXPECT_EQ(stats.node_cache_hits, 2u);

  // A page pinned before any fetch is read without a decode; its first
  // fetch decodes it and the pin keeps that decode.
  pool->Pin(file, pages[2], &stats);
  EXPECT_TRUE(pool->Fetch(file, pages[2], &stats).fresh);
  EXPECT_FALSE(pool->Fetch(file, pages[2], &stats).fresh);
  pool->Unpin(file, pages[2], &stats);
  EXPECT_EQ(stats.node_decodes, 3u);
}

TYPED_TEST(PoolDecodeTest, PrefetchedFrameDecodesOnFirstFetch) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 4);
  Statistics stats;
  ASSERT_TRUE(pool->Prefetch(file, pages[0], &stats));
  EXPECT_EQ(stats.node_decodes, 0u);
  const FetchedNode first = pool->Fetch(file, pages[0], &stats);
  EXPECT_TRUE(first.page_hit);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  const FetchedNode second = pool->Fetch(file, pages[0], &stats);
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(second.decoded.get(), first.decoded.get());
  EXPECT_EQ(stats.node_decodes, 1u);
  EXPECT_EQ(stats.node_cache_hits, 1u);
  EXPECT_EQ(stats.disk_reads, 1u);
}

TYPED_TEST(PoolDecodeTest, ZeroFramePoolDecodesOnEveryFetch) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, TestFixture::kShards);
  const auto pool = MakePool(TestFixture::kShards, 0);
  Statistics stats;
  for (int i = 0; i < 4; ++i) {
    const FetchedNode fetched = pool->Fetch(file, pages[0], &stats);
    EXPECT_FALSE(fetched.page_hit);
    EXPECT_TRUE(fetched.fresh);
    EXPECT_EQ(fetched.decoded->node.entries[0].ref, 0u);
  }
  EXPECT_EQ(stats.node_decodes, 4u);
  EXPECT_EQ(stats.node_cache_hits, 0u);
  EXPECT_EQ(stats.disk_reads, 4u);
  // A pinned page stays resident without frames, and so does its decode.
  pool->Pin(file, pages[0], &stats);
  pool->Fetch(file, pages[0], &stats);
  pool->Fetch(file, pages[0], &stats);
  pool->Unpin(file, pages[0], &stats);
  EXPECT_EQ(stats.node_decodes, 5u);
  EXPECT_EQ(stats.node_cache_hits, 1u);
  EXPECT_TRUE(pool->Fetch(file, pages[0], &stats).fresh);
}

TEST(SharedPoolDecodeTest, CrossThreadReuseAfterCoordinatorWarmup) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 32, 1);
  BufferPool pool(BufferPool::Options{64 * kPageSize1K, kPageSize1K, 8});

  // The "coordinator" decodes every page once.
  Statistics coordinator;
  for (const PageId id : pages) pool.Fetch(file, id, &coordinator);
  EXPECT_EQ(coordinator.node_decodes, pages.size());

  // "Workers" then fetch the same pages concurrently: every decode is
  // shared through the resident frames, none re-decoded.
  constexpr unsigned kThreads = 4;
  std::vector<Statistics> stats(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 50; ++round) {
        for (const PageId id : pages) pool.Fetch(file, id, &stats[t]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Statistics& st : stats) {
    EXPECT_EQ(st.node_decodes, 0u);
    EXPECT_EQ(st.node_cache_hits, 50u * pages.size());
    EXPECT_EQ(st.disk_reads, 0u);
  }
}

TEST(SharedPoolDecodeTest, ConcurrentFirstFetchDecodesOnce) {
  PagedFile file(kPageSize1K);
  const auto pages = MakeNodePages(&file, 1, 1);
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  constexpr unsigned kThreads = 8;
  std::vector<Statistics> stats(kThreads);
  std::vector<const DecodedNode*> seen(kThreads, nullptr);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = pool.Fetch(file, pages[0], &stats[t]).decoded.get();
    });
  }
  for (auto& t : threads) t.join();
  uint64_t decodes = 0;
  uint64_t hits = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]);
    decodes += stats[t].node_decodes;
    hits += stats[t].node_cache_hits;
  }
  EXPECT_EQ(decodes, 1u);
  EXPECT_EQ(hits, kThreads - 1);
}

TEST(SharedPoolDecodeTest, ConcurrentFirstSortBuildsOneSortedForm) {
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
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});

  Statistics first;
  const auto decoded = pool.Fetch(file, id, &first).decoded;
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
      const auto mine = pool.Fetch(file, id, &stats[t]).decoded;
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

TEST(SharedPoolDecodeTest, OrderedPageSharesItsDecode) {
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
  BufferPool pool(BufferPool::Options{4 * kPageSize1K, kPageSize1K, 2});
  Statistics first;
  const auto decoded = pool.Fetch(file, id, &first).decoded;

  // Eight readers ask for the sorted form of the cold decode at once.
  constexpr unsigned kThreads = 8;
  std::vector<Statistics> stats(kThreads);
  std::vector<const DecodedNode::Sorted*> seen(kThreads, nullptr);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      const auto mine = pool.Fetch(file, id, &stats[t]).decoded;
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
