// R-tree / R*-tree tests: insertion, window queries against a brute-force
// oracle, deletion, structural invariants under arbitrary operation
// interleavings (property-based with fixed seeds), split policies, forced
// reinsertion, STR bulk loading, Table 1 style statistics, and digests that
// pin the pages insertion and deletion write.

#include "rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <set>

#include "tests/test_util.h"

namespace rsj {
namespace {

std::vector<uint32_t> OracleQuery(const std::vector<Rect>& rects,
                                  const Rect& window) {
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    if (rects[i].Intersects(window)) out.push_back(i);
  }
  return out;
}

std::vector<uint32_t> SortedQuery(const RTree& tree, const Rect& window) {
  std::vector<uint32_t> out;
  tree.WindowQuery(window, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectValid(const RTree& tree) {
  const auto errors = tree.Validate();
  for (const std::string& e : errors) ADD_FAILURE() << e;
}

TEST(RTreeTest, EmptyTree) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  ExpectValid(tree);
  std::vector<uint32_t> results;
  tree.WindowQuery(Rect{0, 0, 1, 1}, &results);
  EXPECT_TRUE(results.empty());
}

TEST(RTreeTest, SingleInsertAndQuery) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  tree.Insert(Rect{0.2f, 0.2f, 0.4f, 0.4f}, 77);
  EXPECT_EQ(tree.size(), 1u);
  ExpectValid(tree);
  EXPECT_EQ(SortedQuery(tree, Rect{0, 0, 1, 1}),
            (std::vector<uint32_t>{77}));
  EXPECT_TRUE(SortedQuery(tree, Rect{0.5f, 0.5f, 1, 1}).empty());
  // Touching window matches (closed semantics).
  EXPECT_EQ(SortedQuery(tree, Rect{0.4f, 0.4f, 1, 1}),
            (std::vector<uint32_t>{77}));
}

TEST(RTreeTest, CapacityMatchesPageSize) {
  PagedFile file(kPageSize2K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize2K});
  EXPECT_EQ(tree.capacity(), 102u);
  EXPECT_EQ(tree.min_entries(), 40u);  // 40% of 102
}

TEST(RTreeTest, RejectsMismatchedPageSize) {
  PagedFile file(kPageSize1K);
  EXPECT_DEATH(RTree(&file, RTreeOptions{.page_size = kPageSize2K}),
               "page size");
}

TEST(RTreeTest, RejectsInvalidRect) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  EXPECT_DEATH(tree.Insert(Rect{1, 0, 0, 1}, 0), "invalid");
  // Infinite and NaN coordinates too: their enlargements are NaN.
  constexpr Coord kInf = std::numeric_limits<Coord>::infinity();
  EXPECT_DEATH(tree.Insert(Rect{0, 0, kInf, 1}, 0), "invalid");
  EXPECT_DEATH(tree.Insert(Rect{-kInf, 0, 1, 1}, 0), "invalid");
  EXPECT_DEATH(
      tree.Insert(Rect{0, std::numeric_limits<Coord>::quiet_NaN(), 1, 1}, 0),
      "invalid");
}

TEST(RTreeTest, GrowsAndStaysBalanced) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const auto rects = testutil::RandomRects(2000, /*seed=*/42, 0.01);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  EXPECT_EQ(tree.size(), rects.size());
  EXPECT_GE(tree.height(), 2);
  ExpectValid(tree);
}

TEST(RTreeTest, WindowQueryMatchesOracle) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const auto rects = testutil::ClusteredRects(1500, /*seed=*/5);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  const auto windows = testutil::RandomRects(50, /*seed=*/6, /*extent=*/0.3);
  for (const Rect& w : windows) {
    EXPECT_EQ(SortedQuery(tree, w), OracleQuery(rects, w));
  }
}

TEST(RTreeTest, DuplicateRectanglesAllFound) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const Rect dup{0.5f, 0.5f, 0.6f, 0.6f};
  for (uint32_t i = 0; i < 300; ++i) tree.Insert(dup, i);
  ExpectValid(tree);
  const auto found = SortedQuery(tree, dup);
  ASSERT_EQ(found.size(), 300u);
  for (uint32_t i = 0; i < 300; ++i) EXPECT_EQ(found[i], i);
}

TEST(RTreeTest, DeleteExistingEntry) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const auto rects = testutil::RandomRects(500, /*seed=*/9, 0.02);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  EXPECT_TRUE(tree.Delete(rects[123], 123));
  EXPECT_EQ(tree.size(), rects.size() - 1);
  ExpectValid(tree);
  const auto found = SortedQuery(tree, rects[123]);
  EXPECT_EQ(std::count(found.begin(), found.end(), 123u), 0);
}

TEST(RTreeTest, DeleteMissingEntryReturnsFalse) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  tree.Insert(Rect{0, 0, 1, 1}, 1);
  EXPECT_FALSE(tree.Delete(Rect{0, 0, 1, 1}, 2));      // wrong id
  EXPECT_FALSE(tree.Delete(Rect{0, 0, 2, 2}, 1));      // wrong rect
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RTreeTest, DeleteEverythingShrinksToEmptyRoot) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const auto rects = testutil::RandomRects(800, /*seed=*/10, 0.02);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  EXPECT_GT(tree.height(), 1);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    ASSERT_TRUE(tree.Delete(rects[i], i)) << "entry " << i;
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  ExpectValid(tree);
}

TEST(RTreeTest, MixedInsertDeleteInterleaving) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const auto rects = testutil::ClusteredRects(1200, /*seed=*/14);
  std::set<uint32_t> present;
  Rng rng(15);
  uint32_t next = 0;
  for (int step = 0; step < 2400; ++step) {
    const bool do_insert =
        present.empty() || next < rects.size() ? rng.Bernoulli(0.6) : false;
    if (do_insert && next < rects.size()) {
      tree.Insert(rects[next], next);
      present.insert(next);
      ++next;
    } else if (!present.empty()) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(present.size())));
      ASSERT_TRUE(tree.Delete(rects[*it], *it));
      present.erase(it);
    }
  }
  EXPECT_EQ(tree.size(), present.size());
  ExpectValid(tree);
  // Query correctness over the survivors.
  const Rect window{0.2f, 0.2f, 0.8f, 0.8f};
  std::vector<uint32_t> expected;
  for (uint32_t id : present) {
    if (rects[id].Intersects(window)) expected.push_back(id);
  }
  EXPECT_EQ(SortedQuery(tree, window), expected);
}

// Property sweep: validity and query correctness across page sizes and
// split policies.
struct TreeCase {
  uint32_t page_size;
  SplitPolicy policy;
  bool reinsert;
  const char* name;
};

class TreePropertyTest : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreePropertyTest, BuildValidateQuery) {
  const TreeCase& c = GetParam();
  PagedFile file(c.page_size);
  RTreeOptions options;
  options.page_size = c.page_size;
  options.split_policy = c.policy;
  options.forced_reinsert = c.reinsert;
  RTree tree(&file, options);
  const auto rects = testutil::ClusteredRects(3000, /*seed=*/77);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  ExpectValid(tree);
  EXPECT_EQ(tree.size(), rects.size());
  const auto windows = testutil::RandomRects(20, /*seed=*/78, 0.2);
  for (const Rect& w : windows) {
    ASSERT_EQ(SortedQuery(tree, w), OracleQuery(rects, w));
  }
  // Delete a third, revalidate.
  for (uint32_t i = 0; i < rects.size(); i += 3) {
    ASSERT_TRUE(tree.Delete(rects[i], i));
  }
  ExpectValid(tree);
  for (const Rect& w : windows) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < rects.size(); ++i) {
      if (i % 3 != 0 && rects[i].Intersects(w)) expected.push_back(i);
    }
    ASSERT_EQ(SortedQuery(tree, w), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndPolicies, TreePropertyTest,
    ::testing::Values(
        TreeCase{kPageSize1K, SplitPolicy::kRStar, true, "rstar_1k"},
        TreeCase{kPageSize1K, SplitPolicy::kRStar, false, "rstar_noreins_1k"},
        TreeCase{kPageSize2K, SplitPolicy::kRStar, true, "rstar_2k"},
        TreeCase{kPageSize4K, SplitPolicy::kRStar, true, "rstar_4k"},
        TreeCase{kPageSize1K, SplitPolicy::kQuadratic, false, "quad_1k"},
        TreeCase{kPageSize2K, SplitPolicy::kQuadratic, false, "quad_2k"},
        TreeCase{kPageSize1K, SplitPolicy::kLinear, false, "linear_1k"},
        TreeCase{kPageSize4K, SplitPolicy::kLinear, false, "linear_4k"}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return info.param.name;
    });

TEST(RTreeStatsTest, CountsPagesAndEntries) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  const auto rects = testutil::RandomRects(2000, /*seed=*/21, 0.01);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  const TreeStats stats = tree.ComputeStats();
  EXPECT_EQ(stats.data_entries, rects.size());
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_GT(stats.data_pages, rects.size() / tree.capacity());
  EXPECT_GT(stats.dir_pages, 0u);
  // Each non-root level's pages are the children of the level above.
  EXPECT_EQ(stats.dir_entries, stats.TotalPages() - 1);  // all but the root
  // Mean leaf utilization must exceed the R* minimum fill.
  const double fill = static_cast<double>(stats.data_entries) /
                      (static_cast<double>(stats.data_pages) *
                       tree.capacity());
  EXPECT_GE(fill, 0.4);
  EXPECT_LE(fill, 1.0);
}

TEST(RTreeStatsTest, RootMbrCoversAllData) {
  PagedFile file(kPageSize2K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize2K});
  const auto rects = testutil::RandomRects(500, /*seed=*/22, 0.05);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  const Rect root_mbr = tree.ComputeStats().root_mbr;
  for (const Rect& r : rects) EXPECT_TRUE(root_mbr.Contains(r));
}

TEST(ForcedReinsertTest, ImprovesOrMatchesStorageUtilization) {
  const auto rects = testutil::ClusteredRects(4000, /*seed=*/30);
  auto build_fill = [&](bool reinsert) {
    PagedFile file(kPageSize1K);
    RTreeOptions options;
    options.page_size = kPageSize1K;
    options.forced_reinsert = reinsert;
    RTree tree(&file, options);
    for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
    const TreeStats s = tree.ComputeStats();
    return static_cast<double>(s.data_entries) /
           (static_cast<double>(s.data_pages) * tree.capacity());
  };
  // The R* paper reports higher storage utilization with reinsertion; allow
  // a small tolerance for this synthetic workload.
  EXPECT_GE(build_fill(true), build_fill(false) - 0.02);
}

// --- build digests ---------------------------------------------------------

// FNV-1a over every page of the tree's file (freed pages included), then
// the root page id, height, size and free list.
uint64_t TreeDigest(const RTree& tree) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t length) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < length; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  const PagedFile& file = tree.file();
  for (PageId id = 0; id < file.allocated_pages(); ++id) {
    mix(file.PageData(id), file.page_size());
  }
  const PageId root = tree.root_page();
  const int32_t height = tree.height();
  const uint64_t size = tree.size();
  mix(&root, sizeof(root));
  mix(&height, sizeof(height));
  mix(&size, sizeof(size));
  for (const PageId id : file.free_list()) mix(&id, sizeof(id));
  return hash;
}

// FNV-1a over what every page holds rather than how it is laid out: per
// page in id order (freed pages included) its level, its entry count and
// each entry's xl, yl, xu, yu and ref in stored order, then the root page
// id, height, size and free list. A change of the page format keeps it.
uint64_t LogicalTreeDigest(const RTree& tree) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t length) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < length; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  const PagedFile& file = tree.file();
  for (PageId id = 0; id < file.allocated_pages(); ++id) {
    const NodeView node = ViewNode(file, id);
    const uint32_t count = node.size();
    mix(&node.level, sizeof(node.level));
    mix(&count, sizeof(count));
    for (uint32_t i = 0; i < count; ++i) {
      mix(&node.entries.xl[i], sizeof(Coord));
      mix(&node.entries.yl[i], sizeof(Coord));
      mix(&node.entries.xu[i], sizeof(Coord));
      mix(&node.entries.yu[i], sizeof(Coord));
      mix(&node.entries.ref[i], sizeof(uint32_t));
    }
  }
  const PageId root = tree.root_page();
  const int32_t height = tree.height();
  const uint64_t size = tree.size();
  mix(&root, sizeof(root));
  mix(&height, sizeof(height));
  mix(&size, sizeof(size));
  for (const PageId id : file.free_list()) mix(&id, sizeof(id));
  return hash;
}

std::string Hex(uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, value);
  return text;
}

struct DigestCase {
  const char* name;
  uint32_t page_size;
  SplitPolicy policy;
  bool reinsert;
  uint64_t built;      // after inserting the rectangles
  uint64_t condensed;  // after then deleting every third one
  // The same two trees' LogicalTreeDigest.
  uint64_t built_logical;
  uint64_t condensed_logical;
};

class TreeDigestTest : public ::testing::TestWithParam<DigestCase> {};

// Insertion (ChooseSubtree, splits, forced reinsertion) and deletion
// (CondenseTree's orphan reinsertion at upper levels) are pinned byte for
// byte and, layout-free, entry for entry. The logical digests were
// recorded before node pages became coordinate columns and must survive
// any change of the page format; the byte digests were re-recorded with
// that format (version 2). Both were first taken on x86-64 with libstdc++
// (partial_sort's order among ties is part of the tree shape). The inputs
// use arithmetic only (no libm). A change that means to change trees
// updates the logical digests and says so; a change of the page format
// updates only the byte digests.
void ExpectRecordedDigests(const DigestCase& c,
                           const std::vector<Rect>& rects) {
  PagedFile file(c.page_size);
  RTreeOptions options;
  options.page_size = c.page_size;
  options.split_policy = c.policy;
  options.forced_reinsert = c.reinsert;
  RTree tree(&file, options);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  EXPECT_GE(tree.height(), c.page_size == kPageSize1K ? 3 : 2);
  const uint64_t built = TreeDigest(tree);
  const uint64_t built_logical = LogicalTreeDigest(tree);
  for (uint32_t i = 0; i < rects.size(); i += 3) {
    ASSERT_TRUE(tree.Delete(rects[i], i));
  }
  ExpectValid(tree);
  const uint64_t condensed = TreeDigest(tree);
  const uint64_t condensed_logical = LogicalTreeDigest(tree);
  EXPECT_EQ(Hex(built), Hex(c.built)) << "built digest";
  EXPECT_EQ(Hex(condensed), Hex(c.condensed)) << "condensed digest";
  EXPECT_EQ(Hex(built_logical), Hex(c.built_logical))
      << "built logical digest";
  EXPECT_EQ(Hex(condensed_logical), Hex(c.condensed_logical))
      << "condensed logical digest";
}

TEST_P(TreeDigestTest, BuildAndCondenseMatchRecordedPages) {
  ExpectRecordedDigests(GetParam(),
                        testutil::RandomRects(8000, /*seed=*/15, 0.02));
}

INSTANTIATE_TEST_SUITE_P(
    PageSizesAndPolicies, TreeDigestTest,
    ::testing::Values(
        DigestCase{"rstar_1k", kPageSize1K, SplitPolicy::kRStar, true,
                   0x5a4836d5e713e537ULL, 0x91af9a86b2cdd4faULL,
                   0x4e827600d973a3a9ULL, 0x83b757d590111b4aULL},
        DigestCase{"rstar_noreins_1k", kPageSize1K, SplitPolicy::kRStar, false,
                   0x6691c5881c1961bdULL, 0x31f25c4ae37aaf71ULL,
                   0xb32375e2e6e003faULL, 0x53ae7d7fb7e55612ULL},
        DigestCase{"quad_1k", kPageSize1K, SplitPolicy::kQuadratic, false,
                   0xf6254806fef704a7ULL, 0x5a39f2560d8d08f9ULL,
                   0x9c332a57c0b8490aULL, 0x723244f18c5a8de6ULL},
        DigestCase{"linear_1k", kPageSize1K, SplitPolicy::kLinear, false,
                   0x2d223c1528c75378ULL, 0xa3a16edef06ef469ULL,
                   0xeb6138b40042f32fULL, 0x52c163655c194b76ULL},
        DigestCase{"rstar_4k", kPageSize4K, SplitPolicy::kRStar, true,
                   0xc2c886967b463f57ULL, 0x6fcf97b96bbdfa4cULL,
                   0x11d8498587f7a57aULL, 0xab13aa1d5ec887aeULL},
        DigestCase{"rstar_noreins_4k", kPageSize4K, SplitPolicy::kRStar, false,
                   0xdc3c04773a97c3b1ULL, 0xdb83194b7b9587c3ULL,
                   0xfa25eca365feef77ULL, 0x58c0a2f1c78cb49fULL},
        DigestCase{"quad_4k", kPageSize4K, SplitPolicy::kQuadratic, false,
                   0xadfbc24e6ad13edbULL, 0x63c23ad549c5a152ULL,
                   0x473548848ee60502ULL, 0x642dc3d9b8fcb99fULL},
        DigestCase{"linear_4k", kPageSize4K, SplitPolicy::kLinear, false,
                   0x4b0f041248e6af03ULL, 0x32b8003d14242ff1ULL,
                   0xd887ca4a3775f6bfULL, 0x678e6dceaa57b418ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return info.param.name;
    });

// Rectangles in [-1, 1]^2 that lie on both zeros: a rectangle that
// crosses an axis is cut at it, a bound within 0.05 of an axis is moved
// onto it, and each coordinate on an axis is -0.0 or +0.0 by the index's
// bits. Node bounds on the axes then hold either zero, and which one a
// node's rectangle stores depends on how it was computed: -0.0 == +0.0,
// so a min/max fold keeps whichever zero it meets first.
std::vector<Rect> SignedZeroRects() {
  std::vector<Rect> rects;
  const auto on_axes = [](Coord* lo, Coord* hi, Coord zero, bool keep_low) {
    if (*lo < 0 && *hi > 0) {
      *(keep_low ? hi : lo) = zero;
    }
    if (*lo > 0 && *lo < 0.05f) *lo = zero;
    if (*hi < 0 && *hi > -0.05f) *hi = zero;
  };
  const auto input = testutil::RandomRects(8000, /*seed=*/16, 0.05);
  for (uint32_t i = 0; i < input.size(); ++i) {
    const Rect& r = input[i];
    Rect rect{2 * r.xl - 1, 2 * r.yl - 1, 2 * r.xu - 1, 2 * r.yu - 1};
    on_axes(&rect.xl, &rect.xu, (i & 1) != 0 ? -0.0f : 0.0f, (i & 4) != 0);
    on_axes(&rect.yl, &rect.yu, (i & 2) != 0 ? -0.0f : 0.0f, (i & 8) != 0);
    rects.push_back(rect);
  }
  return rects;
}

class SignedZeroDigestTest : public TreeDigestTest {};

// Insertion keeps each entry rectangle in its parent node the exact MBR
// of its child, -0.0 and +0.0 included: the same pages, bit for bit.
TEST_P(SignedZeroDigestTest, BuildAndCondenseMatchRecordedPages) {
  const DigestCase& c = GetParam();
  const std::vector<Rect> rects = SignedZeroRects();
  ExpectRecordedDigests(c, rects);
  // The directory entries hold both zeros.
  PagedFile file(c.page_size);
  RTree tree(&file, RTreeOptions{.page_size = c.page_size});
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  size_t zeros[2] = {0, 0};  // +0.0, -0.0
  for (PageId id = 0; id < file.allocated_pages(); ++id) {
    const NodeView node = ViewNode(file, id);
    if (node.is_leaf()) continue;
    for (uint32_t i = 0; i < node.size(); ++i) {
      const Rect r = node.entries.rect(i);
      for (const Coord v : {r.xl, r.yl, r.xu, r.yu}) {
        if (v == 0) ++zeros[std::signbit(v) ? 1 : 0];
      }
    }
  }
  EXPECT_GT(zeros[0], 0u);
  EXPECT_GT(zeros[1], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RStarPageSizes, SignedZeroDigestTest,
    ::testing::Values(
        DigestCase{"rstar_1k", kPageSize1K, SplitPolicy::kRStar, true,
                   0x60582bfc4686ee5bULL, 0x32fbdb9ae3802e5cULL,
                   0x52cecf3990d44dcaULL, 0x67933c5569ffe2bcULL},
        DigestCase{"rstar_4k", kPageSize4K, SplitPolicy::kRStar, true,
                   0x08801f2da0a2db90ULL, 0x86d2cf66e649aab2ULL,
                   0x6184a207616126a6ULL, 0x8e615a0799c25ee7ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return info.param.name;
    });

TEST(BulkLoadTest, StrProducesValidEquivalentTree) {
  const auto rects = testutil::ClusteredRects(3000, /*seed=*/31);
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    entries.push_back(Entry{rects[i], i});
  }
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  tree.BulkLoadStr(entries, /*fill_fraction=*/1.0);
  EXPECT_EQ(tree.size(), rects.size());
  ExpectValid(tree);
  const auto windows = testutil::RandomRects(25, /*seed=*/32, 0.25);
  for (const Rect& w : windows) {
    ASSERT_EQ(SortedQuery(tree, w), OracleQuery(rects, w));
  }
  // Near-full packing (chunk evening trades a few % of fill for the
  // min-fill invariant on tail nodes).
  const TreeStats stats = tree.ComputeStats();
  const double fill = static_cast<double>(stats.data_entries) /
                      (static_cast<double>(stats.data_pages) *
                       tree.capacity());
  EXPECT_GE(fill, 0.85);
}

TEST(BulkLoadTest, PartialFillFraction) {
  const auto rects = testutil::RandomRects(1000, /*seed=*/33, 0.01);
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    entries.push_back(Entry{rects[i], i});
  }
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  tree.BulkLoadStr(entries, /*fill_fraction=*/0.7);
  ExpectValid(tree);
  const TreeStats stats = tree.ComputeStats();
  const double fill = static_cast<double>(stats.data_entries) /
                      (static_cast<double>(stats.data_pages) *
                       tree.capacity());
  EXPECT_LE(fill, 0.75);
  EXPECT_GE(fill, 0.55);
}

TEST(BulkLoadTest, EmptyAndTinyInputs) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  tree.BulkLoadStr({}, 1.0);
  EXPECT_EQ(tree.size(), 0u);
  ExpectValid(tree);

  PagedFile file2(kPageSize1K);
  RTree tree2(&file2, RTreeOptions{.page_size = kPageSize1K});
  const std::vector<Entry> one{Entry{Rect{0, 0, 1, 1}, 0}};
  tree2.BulkLoadStr(one, 1.0);
  EXPECT_EQ(tree2.size(), 1u);
  ExpectValid(tree2);
  EXPECT_EQ(SortedQuery(tree2, Rect{0, 0, 2, 2}),
            (std::vector<uint32_t>{0}));
}

// STR packing stores every node's entries in lower-x order, as insertion
// does, so the joins' sort on read finds each page sorted. Walks every
// node reachable from the root and returns how many it visited.
size_t ExpectNodesInLowerXOrder(const RTree& tree) {
  size_t visited = 0;
  std::vector<PageId> pending{tree.root_page()};
  while (!pending.empty()) {
    const PageId page = pending.back();
    pending.pop_back();
    const NodeView node = ViewNode(tree.file(), page);
    ++visited;
    EXPECT_TRUE(std::is_sorted(node.entries.xl, node.entries.xl + node.size()))
        << "page " << page << " at level " << int{node.level};
    if (node.is_leaf()) continue;
    pending.insert(pending.end(), node.entries.ref,
                   node.entries.ref + node.size());
  }
  return visited;
}

std::vector<Entry> EntriesOf(const std::vector<Rect>& rects) {
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    entries.push_back(Entry{rects[i], i});
  }
  return entries;
}

TEST(BulkLoadTest, EveryNodeIsInLowerXOrder) {
  for (const double fill : {1.0, 0.7}) {
    SCOPED_TRACE(fill);
    for (const auto& rects : {testutil::RandomRects(3000, /*seed=*/41, 0.02),
                              testutil::ClusteredRects(3000, /*seed=*/42)}) {
      PagedFile file(kPageSize1K);
      RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
      tree.BulkLoadStr(EntriesOf(rects), fill);
      ASSERT_GE(tree.height(), 3);
      EXPECT_EQ(ExpectNodesInLowerXOrder(tree), file.allocated_pages());
    }
  }
}

// With all x- and y-centers distinct the key sorts are total orders, so
// the pages cannot depend on the input order.
TEST(BulkLoadTest, PermutedInputWithDistinctCentersGivesIdenticalPages) {
  const auto rects = testutil::RandomRects(2500, /*seed=*/48, 0.02);
  std::set<Coord> xs, ys;
  for (const Rect& r : rects) {
    xs.insert(r.Center().x);
    ys.insert(r.Center().y);
  }
  ASSERT_EQ(xs.size(), rects.size());
  ASSERT_EQ(ys.size(), rects.size());

  const std::vector<Entry> entries = EntriesOf(rects);
  std::vector<Entry> permuted = entries;
  std::shuffle(permuted.begin(), permuted.end(), std::mt19937_64(49));
  ASSERT_NE(permuted, entries);

  uint64_t digests[2];
  for (int i = 0; i < 2; ++i) {
    PagedFile file(kPageSize1K);
    RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
    tree.BulkLoadStr(i == 0 ? entries : permuted, /*fill_fraction=*/0.7);
    ExpectValid(tree);
    digests[i] = TreeDigest(tree);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// A lattice ties most centers (and every xl within a column): ties keep
// input order, so the build is deterministic, valid and answers queries.
TEST(BulkLoadTest, LatticeWithTiedCentersIsDeterministic) {
  std::vector<Rect> rects;
  for (int copy = 0; copy < 3; ++copy) {
    for (int i = 0; i < 30; ++i) {
      for (int j = 0; j < 30; ++j) {
        const auto x = static_cast<Coord>(i) / 32;
        const auto y = static_cast<Coord>(j) / 32;
        const Coord w = copy == 2 ? Coord{0} : Coord{1} / 64;
        rects.push_back(Rect{x, y, x + w, y + w});
      }
    }
  }
  uint64_t digests[2];
  for (int i = 0; i < 2; ++i) {
    PagedFile file(kPageSize1K);
    RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
    tree.BulkLoadStr(EntriesOf(rects), /*fill_fraction=*/1.0);
    ExpectValid(tree);
    EXPECT_EQ(ExpectNodesInLowerXOrder(tree), file.allocated_pages());
    const auto windows = testutil::RandomRects(25, /*seed=*/44, 0.2);
    for (const Rect& w : windows) {
      ASSERT_EQ(SortedQuery(tree, w), OracleQuery(rects, w));
    }
    digests[i] = TreeDigest(tree);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// Keys below zero and both zeros: the key image must order negative
// floats below positive ones and tie -0.0 with +0.0.
TEST(BulkLoadTest, NegativeCoordinatesAndSignedZeroCenters) {
  std::vector<Rect> rects;
  for (const Rect& r : testutil::RandomRects(2000, /*seed=*/45, 0.05)) {
    rects.push_back(Rect{2 * r.xl - 1, 2 * r.yl - 1, 2 * r.xu - 1,
                         2 * r.yu - 1});
  }
  for (int i = 0; i < 200; ++i) {
    const Coord v = static_cast<Coord>(i - 100) / 100;
    rects.push_back(Rect{-0.0f, v, -0.0f, v});  // center x -0.0
    rects.push_back(Rect{0.0f, v, 0.0f, v});  // center x +0.0
    rects.push_back(Rect{-0.25f, -0.0f, 0.25f, -0.0f});  // x +0.0, y -0.0
    rects.push_back(Rect{v, -0.5f, v, 0.5f});  // center y +0.0
  }
  for (const double fill : {1.0, 0.7}) {
    SCOPED_TRACE(fill);
    PagedFile file(kPageSize1K);
    RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
    tree.BulkLoadStr(EntriesOf(rects), fill);
    EXPECT_EQ(tree.size(), rects.size());
    ExpectValid(tree);
    EXPECT_EQ(ExpectNodesInLowerXOrder(tree), file.allocated_pages());
    auto windows = testutil::RandomRects(25, /*seed=*/46, 0.5);
    for (Rect& w : windows) {
      w = Rect{2 * w.xl - 1, 2 * w.yl - 1, 2 * w.xu - 1, 2 * w.yu - 1};
    }
    windows.push_back(Rect{-0.0f, -1.0f, 0.0f, 1.0f});
    windows.push_back(Rect{-1.0f, 0.0f, 1.0f, 0.0f});
    for (const Rect& w : windows) {
      ASSERT_EQ(SortedQuery(tree, w), OracleQuery(rects, w));
    }
  }
}

TEST(BulkLoadTest, RequiresEmptyTree) {
  PagedFile file(kPageSize1K);
  RTree tree(&file, RTreeOptions{.page_size = kPageSize1K});
  tree.Insert(Rect{0, 0, 1, 1}, 0);
  const std::vector<Entry> entries{Entry{Rect{0, 0, 1, 1}, 1}};
  EXPECT_DEATH(tree.BulkLoadStr(entries, 1.0), "empty tree");
}

}  // namespace
}  // namespace rsj
