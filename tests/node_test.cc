// Tests for the on-page node layout: capacities matching Table 1, header
// encoding, the entry columns and their offsets, serialization round
// trips, views of a page in place and the readers' sorted and grown
// copies, and corruption detection.

#include "rtree/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "tests/test_util.h"

namespace rsj {
namespace {

TEST(EntryLayoutTest, PaperTable1Capacities) {
  // M = (pagesize - 4) / 20 must reproduce the paper's fan-outs exactly.
  EXPECT_EQ(NodeCapacity(kPageSize1K), 51u);
  EXPECT_EQ(NodeCapacity(kPageSize2K), 102u);
  EXPECT_EQ(NodeCapacity(kPageSize4K), 204u);
  EXPECT_EQ(NodeCapacity(kPageSize8K), 409u);
}

TEST(NodeTest, EmptyNodeRoundTrip) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node node;
  node.level = 0;
  node.Store(&file, id);
  const Node loaded = Node::Load(file, id);
  EXPECT_EQ(loaded.level, 0);
  EXPECT_TRUE(loaded.entries.empty());
  EXPECT_TRUE(loaded.is_leaf());
}

TEST(NodeTest, FullNodeRoundTrip) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node node;
  node.level = 2;
  const auto rects = testutil::RandomRects(NodeCapacity(kPageSize1K), 3);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    node.entries.push_back(Entry{rects[i], i * 7 + 1});
  }
  node.Store(&file, id);
  const Node loaded = Node::Load(file, id);
  EXPECT_EQ(loaded.level, 2);
  EXPECT_FALSE(loaded.is_leaf());
  ASSERT_EQ(loaded.entries.size(), node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i], node.entries[i]);
  }
}

TEST(NodeTest, ComputeMbrUnionOfEntries) {
  Node node;
  node.entries = {Entry{Rect{0, 0, 1, 1}, 0}, Entry{Rect{2, -1, 3, 0.5f}, 1}};
  EXPECT_EQ(node.ComputeMbr(), (Rect{0, -1, 3, 1}));
}

TEST(NodeTest, ComputeMbrOfEmptyNodeIsEmpty) {
  Node node;
  EXPECT_TRUE(node.ComputeMbr().IsEmpty());
}

TEST(NodeTest, StoreRejectsOverflow) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node node;
  for (uint32_t i = 0; i <= NodeCapacity(kPageSize1K); ++i) {
    node.entries.push_back(Entry{Rect{0, 0, 1, 1}, i});
  }
  EXPECT_DEATH(node.Store(&file, id), "overflows");
}

TEST(NodeTest, LoadRejectsNonNodePage) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();  // zeroed page, no magic byte
  EXPECT_DEATH(Node::Load(file, id), "R-tree node");
}

TEST(NodeTest, RewriteInPlace) {
  PagedFile file(kPageSize2K);
  const PageId id = file.Allocate();
  Node a;
  a.level = 1;
  a.entries = {Entry{Rect{0, 0, 1, 1}, 42}};
  a.Store(&file, id);
  Node b;
  b.level = 0;
  b.entries = {Entry{Rect{5, 5, 6, 6}, 7}, Entry{Rect{1, 2, 3, 4}, 8}};
  b.Store(&file, id);
  const Node loaded = Node::Load(file, id);
  EXPECT_EQ(loaded.level, 0);
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(loaded.entries[0].ref, 7u);
  EXPECT_EQ(loaded.entries[1].ref, 8u);
}

TEST(NodeLayoutTest, StoreWritesEntryColumns) {
  for (const uint32_t page_size : {kPageSize1K, kPageSize4K}) {
    PagedFile file(page_size);
    const PageId id = file.Allocate();
    Node node;
    node.level = 3;
    const auto rects = testutil::RandomRects(NodeCapacity(page_size), 5);
    for (uint32_t i = 0; i < rects.size(); ++i) {
      node.entries.push_back(Entry{rects[i], 1000 + i});
    }
    node.Store(&file, id);
    const std::byte* page = file.PageData(id);
    uint16_t count = 0;
    std::memcpy(&count, page + kNodeCountByte, sizeof(count));
    EXPECT_EQ(count, rects.size());
    EXPECT_EQ(static_cast<uint8_t>(page[kNodeLevelByte]), 3);
    EXPECT_EQ(static_cast<uint8_t>(page[kNodeMagicByte]), kNodeMagic);
    // The ref column ends exactly at the last whole entry slot.
    EXPECT_LE(NodeFieldOffset(page_size, NodeColumn::kRef,
                              NodeCapacity(page_size)),
              page_size);
    for (uint32_t i = 0; i < rects.size(); ++i) {
      const auto field = [&](NodeColumn column) {
        float value = 0;
        std::memcpy(&value, page + NodeFieldOffset(page_size, column, i),
                    sizeof(value));
        return value;
      };
      EXPECT_EQ(field(NodeColumn::kXl), rects[i].xl);
      EXPECT_EQ(field(NodeColumn::kYl), rects[i].yl);
      EXPECT_EQ(field(NodeColumn::kXu), rects[i].xu);
      EXPECT_EQ(field(NodeColumn::kYu), rects[i].yu);
      uint32_t ref = 0;
      std::memcpy(&ref, page + NodeFieldOffset(page_size, NodeColumn::kRef, i),
                  sizeof(ref));
      EXPECT_EQ(ref, 1000 + i);
    }
  }
}

TEST(NodeViewTest, ViewsThePageInPlace) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node node;
  node.level = 1;
  const auto rects = testutil::RandomRects(30, 7);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    node.entries.push_back(Entry{rects[i], 3 * i});
  }
  node.Store(&file, id);
  const NodeView view = ViewNode(file, id);
  EXPECT_EQ(view.level, 1);
  EXPECT_FALSE(view.is_leaf());
  ASSERT_EQ(view.size(), node.entries.size());
  // The columns are the page's bytes, 4-byte aligned, not a copy.
  const std::byte* page = file.PageData(id);
  EXPECT_EQ(static_cast<const void*>(view.entries.xl),
            static_cast<const void*>(
                page + NodeFieldOffset(kPageSize1K, NodeColumn::kXl, 0)));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.entries.ref) % 4, 0u);
  for (uint32_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view.entries.entry(i), node.entries[i]);
  }
  EXPECT_EQ(view.ComputeMbr(), node.ComputeMbr());
  const RectColumns rects_view = view.entries.rects();
  EXPECT_EQ(rects_view.size, node.entries.size());
  EXPECT_EQ(rects_view.index_at(7), 7u);
  EXPECT_EQ(rects_view.RectAt(7), rects[7]);
}

TEST(NodeViewTest, CheckedViewRejectsNonNodePages) {
  PagedFile file(kPageSize1K);
  const PageId zeroed = file.Allocate();  // no magic byte
  EXPECT_FALSE(CheckedViewNode(file, zeroed).has_value());
  EXPECT_DEATH(ViewNode(file, zeroed), "R-tree node");
  const PageId id = file.Allocate();
  Node node;
  node.entries = {Entry{Rect{0, 0, 1, 1}, 4}};
  node.Store(&file, id);
  ASSERT_TRUE(CheckedViewNode(file, id).has_value());
  const uint16_t count = NodeCapacity(kPageSize1K) + 1;
  std::memcpy(file.MutablePageData(id) + kNodeCountByte, &count,
              sizeof(count));
  EXPECT_FALSE(CheckedViewNode(file, id).has_value());
}

// The comparisons of a stable insertion sort by lower x over `entries`,
// which it sorts: the §4.2 charge the readers' copies must reproduce.
uint64_t ReferenceInsertionSort(std::vector<Entry>* entries) {
  uint64_t comparisons = 0;
  for (size_t i = 1; i < entries->size(); ++i) {
    const Entry pending = (*entries)[i];
    size_t j = i;
    while (j > 0) {
      ++comparisons;
      if (!(pending.rect.xl < (*entries)[j - 1].rect.xl)) break;
      (*entries)[j] = (*entries)[j - 1];
      --j;
    }
    (*entries)[j] = pending;
  }
  return comparisons;
}

std::vector<Entry> EntriesOf(const NodeView& view) {
  std::vector<Entry> out;
  for (uint32_t i = 0; i < view.size(); ++i) {
    out.push_back(view.entries.entry(i));
  }
  return out;
}

TEST(NodeCopyTest, OutOfOrderPageIsSortedIntoTheReadersCopy) {
  // A leaf out of xl order, with ties, so the sort moves entries and its
  // stability shows.
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node stored;
  for (uint32_t i = 0; i < 40; ++i) {
    const auto xl = static_cast<Coord>((i * 7) % 13);
    stored.entries.push_back(Entry{Rect{xl, 0.0f, xl + 1.0f, 1.0f}, i});
  }
  stored.Store(&file, id);
  std::vector<Entry> expected = stored.entries;
  const uint64_t expected_cost = ReferenceInsertionSort(&expected);
  ASSERT_NE(expected, stored.entries) << "the page must need sorting";
  ASSERT_TRUE(std::is_sorted(expected.begin(), expected.end(),
                             [](const Entry& a, const Entry& b) {
                               return a.rect.xl < b.rect.xl;
                             }));

  // Two readers sort into copies of their own and agree.
  NodeCopy mine;
  NodeCopy theirs;
  ComparisonCounter cost;
  ComparisonCounter their_cost;
  const NodeView sorted = SortedByLowerX(ViewNode(file, id), &mine, &cost);
  const NodeView other =
      SortedByLowerX(ViewNode(file, id), &theirs, &their_cost);
  EXPECT_EQ(sorted.entries.xl, mine.columns().xl);
  EXPECT_NE(sorted.entries.xl, other.entries.xl);
  EXPECT_EQ(sorted.level, stored.level);
  EXPECT_EQ(EntriesOf(sorted), expected);
  EXPECT_EQ(EntriesOf(other), expected);
  EXPECT_EQ(cost.count(), expected_cost);
  EXPECT_EQ(their_cost.count(), expected_cost);
  EXPECT_GT(cost.count(), expected.size() - 1);
  // The page keeps its stored order.
  EXPECT_EQ(EntriesOf(ViewNode(file, id)), stored.entries);
}

TEST(NodeCopyTest, OrderedPageIsItsOwnSortedForm) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node stored;
  for (uint32_t i = 0; i < 40; ++i) {
    const auto xl = static_cast<Coord>(i / 3);
    stored.entries.push_back(Entry{Rect{xl, 0.0f, xl + 1.0f, 1.0f}, i});
  }
  stored.Store(&file, id);
  NodeCopy copy;
  ComparisonCounter cost;
  const NodeView page = ViewNode(file, id);
  const NodeView sorted = SortedByLowerX(page, &copy, &cost);
  // No copy: the view is the page, at the insertion sort's cost on
  // ordered input.
  EXPECT_EQ(sorted.entries.xl, page.entries.xl);
  EXPECT_EQ(sorted.entries.ref, page.entries.ref);
  EXPECT_EQ(cost.count(), stored.entries.size() - 1);
  std::vector<Entry> resorted = stored.entries;
  EXPECT_EQ(ReferenceInsertionSort(&resorted), cost.count());

  Node empty;
  empty.Store(&file, id);
  ComparisonCounter empty_cost;
  EXPECT_EQ(SortedByLowerX(ViewNode(file, id), &copy, &empty_cost).size(),
            0u);
  EXPECT_EQ(empty_cost.count(), 0u);
  // Without a counter nothing is charged, and the view is the same.
  EXPECT_EQ(SortedByLowerX(page, &copy, nullptr).entries.xl, page.entries.xl);
}

TEST(NodeCopyTest, ExpandedCopyGrowsEveryRectangle) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  Node stored;
  const auto rects = testutil::RandomRects(25, 9);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    stored.entries.push_back(Entry{rects[i], 5 + i});
  }
  stored.Store(&file, id);
  NodeCopy grown;
  grown.AssignExpanded(ViewNode(file, id).entries, 0.01);
  const EntryColumns columns = grown.columns();
  ASSERT_EQ(columns.size, rects.size());
  for (uint32_t i = 0; i < columns.size; ++i) {
    EXPECT_EQ(columns.rect(i), rects[i].Expanded(0.01));
    EXPECT_EQ(columns.ref[i], 5 + i);
  }
  // The page keeps the unexpanded rectangles.
  EXPECT_EQ(ViewNode(file, id).entries.rect(0), rects[0]);
}

}  // namespace
}  // namespace rsj
