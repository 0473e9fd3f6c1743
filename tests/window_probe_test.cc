// Tests for the batched window probe (join/window_probe.h) against brute
// force: every predicate, both pair orientations, sorted and presorted
// batches from the root or a subtree root, and its sort accounting.

#include "join/window_probe.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/prefetcher.h"
#include "join/join_runner.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

using Matches = std::vector<std::pair<uint32_t, uint32_t>>;

// The (query, id) matches of a batch by scanning the rectangles `ids` of
// the relation with the exact predicate, R side first, sorted.
Matches OracleProbe(const std::vector<Rect>& queries,
                    const std::vector<Rect>& rects,
                    const std::vector<uint32_t>& ids,
                    const JoinOptions& options, bool windows_are_r) {
  ComparisonCounter unused;
  Matches matches;
  for (uint32_t i = 0; i < queries.size(); ++i) {
    for (const uint32_t id : ids) {
      const Rect& a = windows_are_r ? queries[i] : rects[id];
      const Rect& b = windows_are_r ? rects[id] : queries[i];
      if (EvaluatePredicateCounted(options.predicate, options.epsilon, a, b,
                                   &unused)) {
        matches.emplace_back(i, id);
      }
    }
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::vector<uint32_t> AllIds(size_t n) {
  std::vector<uint32_t> ids(n);
  for (uint32_t id = 0; id < n; ++id) ids[id] = id;
  return ids;
}

// The pages of the subtree under `page`, and the ids of its data entries.
void WalkSubtree(const RTree& tree, PageId page, std::vector<PageId>* pages,
                 std::vector<uint32_t>* ids) {
  pages->push_back(page);
  const NodeView node = ViewNode(tree.file(), page);
  for (uint32_t i = 0; i < node.size(); ++i) {
    if (node.is_leaf()) {
      ids->push_back(node.entries.ref[i]);
    } else {
      WalkSubtree(tree, node.entries.ref[i], pages, ids);
    }
  }
}

struct Predicate {
  JoinPredicate predicate;
  double epsilon;
};

constexpr Predicate kPredicates[] = {{JoinPredicate::kIntersects, 0.0},
                                     {JoinPredicate::kContains, 0.0},
                                     {JoinPredicate::kContainedBy, 0.0},
                                     {JoinPredicate::kWithinDistance, 0.005},
                                     {JoinPredicate::kWithinDistance, 0.02}};

std::string Where(const char* tree, const Predicate& p, bool windows_are_r,
                  size_t batch) {
  return std::string(tree) + " " + JoinPredicateName(p.predicate) +
         " eps=" + std::to_string(p.epsilon) +
         (windows_are_r ? " windows=R" : " windows=S") +
         " batch=" + std::to_string(batch);
}

// 300 windows, more than the 51 entries of a 1 KiB page. Among the first
// seven: a duplicate, a point window on a data rectangle's corner and its
// duplicate, and a window covering everything.
std::vector<Rect> WindowPool(const std::vector<Rect>& deep_rects,
                             const std::vector<Rect>& leaf_rects) {
  std::vector<Rect> pool = testutil::ClusteredRects(300, 993, 6, 0.04);
  pool[2] = pool[0];
  const Rect& corner = deep_rects[17];
  pool[3] = Rect{corner.xl, corner.yl, corner.xl, corner.yl};
  pool[5] = pool[3];
  pool[6] = Rect{0.0f, 0.0f, 1.0f, 1.0f};
  pool[150] = pool[149];
  const Rect& leaf_corner = leaf_rects[4];
  pool[200] = Rect{leaf_corner.xu, leaf_corner.yu, leaf_corner.xu,
                   leaf_corner.yu};
  return pool;
}

TEST(WindowProbeTest, MatchesBruteForceForEveryPredicateAndBatchSize) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const auto deep_rects = testutil::ClusteredRects(2000, 991, 6, 0.03);
  const auto leaf_rects = testutil::ClusteredRects(30, 992, 3, 0.05);
  const std::vector<Rect> no_rects;
  const IndexedRelation deep(deep_rects, topt);
  const IndexedRelation leaf(leaf_rects, topt);
  const IndexedRelation empty(no_rects, topt);
  ASSERT_GE(deep.tree().height(), 3);
  ASSERT_EQ(leaf.tree().height(), 1);  // the root is a leaf
  const std::vector<Rect> pool = WindowPool(deep_rects, leaf_rects);

  struct Tree {
    const char* name;
    const RTree* tree;
    const std::vector<Rect>* rects;
  };
  const Tree trees[] = {{"deep", &deep.tree(), &deep_rects},
                        {"leaf_root", &leaf.tree(), &leaf_rects},
                        {"empty", &empty.tree(), &no_rects}};
  size_t nonempty = 0;
  for (const Tree& t : trees) {
    const std::vector<uint32_t> ids = AllIds(t.rects->size());
    for (const Predicate& p : kPredicates) {
      for (const bool windows_are_r : {true, false}) {
        JoinOptions jopt;
        jopt.predicate = p.predicate;
        jopt.epsilon = p.epsilon;
        Statistics stats;
        BufferPool pages(BufferPool::Options{16 * 1024, kPageSize1K});
        // One probe across every batch: its scratch carries over.
        WindowProbe probe(*t.tree, &pages, jopt, &stats, windows_are_r);
        for (const size_t batch : {size_t{1}, size_t{7}, size_t{300}}) {
          const std::vector<Rect> queries(pool.begin(), pool.begin() + batch);
          const std::string where = Where(t.name, p, windows_are_r, batch);
          Matches got;
          const uint64_t window_queries = stats.window_queries;
          probe.Run(std::span<const Rect>(queries),
                    [&got](uint32_t i, uint32_t id) {
                      got.emplace_back(i, id);
                    });
          EXPECT_EQ(stats.window_queries - window_queries, batch) << where;
          std::sort(got.begin(), got.end());
          const Matches expected =
              OracleProbe(queries, *t.rects, ids, jopt, windows_are_r);
          EXPECT_EQ(got, expected) << where;
          nonempty += !expected.empty();
        }
      }
    }
  }
  // The oracle must have had matches to find on the non-empty trees.
  EXPECT_GE(nonempty, 4u * std::size(kPredicates));
}

TEST(WindowProbeTest, PresortedBatchesFromEverySubtreeRoot) {
  // RunSorted answers an xl-ordered batch in the subtree under a start
  // page, without a batch sort: over a pool that holds every decode it
  // charges no sort comparison at all, where Run sorts the batch.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const auto deep_rects = testutil::ClusteredRects(2000, 991, 6, 0.03);
  const auto leaf_rects = testutil::ClusteredRects(30, 992, 3, 0.05);
  const IndexedRelation deep(deep_rects, topt);
  ASSERT_GE(deep.tree().height(), 3);
  std::vector<Rect> queries = WindowPool(deep_rects, leaf_rects);
  std::stable_sort(queries.begin(), queries.end(),
                   [](const Rect& a, const Rect& b) { return a.xl < b.xl; });

  const NodeView root = ViewNode(deep.tree().file(), deep.tree().root_page());
  ASSERT_FALSE(root.is_leaf());
  size_t nonempty = 0;
  for (const Predicate& p : kPredicates) {
    for (const bool windows_are_r : {true, false}) {
      JoinOptions jopt;
      jopt.predicate = p.predicate;
      jopt.epsilon = p.epsilon;
      Statistics stats;
      BufferPool pages(BufferPool::Options{1024 * 1024, kPageSize1K});
      WindowProbe probe(deep.tree(), &pages, jopt, &stats, windows_are_r);
      for (uint32_t i = 0; i < root.size(); ++i) {
        const Entry subtree = root.entries.entry(i);
        std::vector<PageId> subtree_pages;
        std::vector<uint32_t> ids;
        WalkSubtree(deep.tree(), subtree.ref, &subtree_pages, &ids);
        const std::string where =
            Where("subtree", p, windows_are_r, queries.size()) + " page " +
            std::to_string(subtree.ref);
        const uint64_t reads = stats.disk_reads;
        Matches got;
        probe.RunSorted(subtree.ref, std::span<const Rect>(queries),
                        [&got](uint32_t i, uint32_t id) {
                          got.emplace_back(i, id);
                        });
        std::sort(got.begin(), got.end());
        const Matches expected =
            OracleProbe(queries, deep_rects, ids, jopt, windows_are_r);
        EXPECT_EQ(got, expected) << where;
        EXPECT_LE(stats.disk_reads - reads, subtree_pages.size()) << where;
        nonempty += !expected.empty();
      }
      // Once the root is resident too, the pool holds every decode.
      const auto from_root = [&] {
        probe.RunSorted(deep.tree().root_page(),
                        std::span<const Rect>(queries),
                        [](uint32_t, uint32_t) {});
      };
      from_root();
      const uint64_t sorts = stats.sort_comparisons.count();
      from_root();
      EXPECT_EQ(stats.sort_comparisons.count(), sorts)
          << Where("root", p, windows_are_r, queries.size());
      std::vector<Rect> reversed(queries.rbegin(), queries.rend());
      probe.Run(std::span<const Rect>(reversed), [](uint32_t, uint32_t) {});
      EXPECT_GT(stats.sort_comparisons.count(), sorts)
          << Where("root", p, windows_are_r, queries.size());
    }
  }
  EXPECT_GE(nonempty, 2u * std::size(kPredicates));
}

TEST(WindowProbeTest, ChargesThePageSortOnTheDecode) {
  // A page a prefetch made resident carries no decode, so the probe's
  // fetch decodes it and must charge its sort, as after a physical read:
  // one all-covering window charges the same sort comparisons over a cold
  // pool and over one a prefetcher filled.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const auto rects = testutil::RandomRects(3000, 1601, 0.02);
  const IndexedRelation rel(rects, topt);
  std::vector<PageId> all_pages;
  std::vector<uint32_t> ids;
  WalkSubtree(rel.tree(), rel.tree().root_page(), &all_pages, &ids);
  ASSERT_EQ(ids.size(), rects.size());
  const std::vector<Rect> everything = {Rect{0.0f, 0.0f, 1.0f, 1.0f}};

  const auto probe_sorts = [&](bool prefetch) {
    Statistics stats;
    BufferPool pages(BufferPool::Options{1024 * 1024, kPageSize1K});
    if (prefetch) {
      const Prefetcher prefetcher(&pages);
      for (const PageId page : all_pages) {
        EXPECT_TRUE(prefetcher.PrefetchPage(rel.tree().file(), page, &stats));
      }
    }
    WindowProbe probe(rel.tree(), &pages, JoinOptions{}, &stats);
    size_t matches = 0;
    probe.Run(std::span<const Rect>(everything),
              [&matches](uint32_t, uint32_t) { ++matches; });
    EXPECT_EQ(matches, rects.size());
    EXPECT_EQ(stats.node_decodes, all_pages.size());
    return stats.sort_comparisons.count();
  };
  const uint64_t cold = probe_sorts(/*prefetch=*/false);
  EXPECT_GE(cold, all_pages.size());
  EXPECT_EQ(probe_sorts(/*prefetch=*/true), cold);
}

TEST(WindowProbeTest, EmptyBatchTouchesNoPage) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const auto rects = testutil::ClusteredRects(200, 994);
  const IndexedRelation rel(rects, topt);
  Statistics stats;
  BufferPool pages(BufferPool::Options{16 * 1024, kPageSize1K});
  WindowProbe probe(rel.tree(), &pages, JoinOptions{}, &stats);
  bool called = false;
  probe.Run(std::span<const Rect>(),
            [&called](uint32_t, uint32_t) { called = true; });
  probe.RunSorted(rel.tree().root_page(), std::span<const Rect>(),
                  [&called](uint32_t, uint32_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(stats.window_queries, 0u);
  EXPECT_EQ(stats.disk_reads + stats.buffer_hits, 0u);
}

}  // namespace
}  // namespace rsj
