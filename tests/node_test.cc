// Tests for the on-page node layout: capacities matching Table 1, header
// encoding, the entry columns and their offsets, the in-place page edits
// against a vector model and a whole rewrite, views of a page in place and
// the readers' sorted and grown copies, and corruption detection.

#include "rtree/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "datagen/rng.h"
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

// `count` entries over RandomRects(count, seed) with refs base, base + 1, …
std::vector<Entry> MakeEntries(size_t count, uint64_t seed, uint32_t base) {
  std::vector<Entry> entries;
  const auto rects = testutil::RandomRects(count, seed);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    entries.push_back(Entry{rects[i], base + i});
  }
  return entries;
}

std::vector<Entry> EntriesOf(const NodeView& view) {
  std::vector<Entry> out;
  for (uint32_t i = 0; i < view.size(); ++i) {
    out.push_back(view.entries.entry(i));
  }
  return out;
}

TEST(NodeEditTest, EmptyNodeWritten) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  WriteNode(&file, id, /*level=*/0, {});
  const NodeView view = ViewNode(file, id);
  EXPECT_EQ(view.level, 0);
  EXPECT_EQ(view.size(), 0u);
  EXPECT_TRUE(view.is_leaf());
  EXPECT_TRUE(view.ComputeMbr().IsEmpty());
}

TEST(NodeEditTest, FullNodeWritten) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  const auto entries = MakeEntries(NodeCapacity(kPageSize1K), 3, 1);
  WriteNode(&file, id, /*level=*/2, entries);
  const NodeView view = ViewNode(file, id);
  EXPECT_EQ(view.level, 2);
  EXPECT_FALSE(view.is_leaf());
  EXPECT_EQ(EntriesOf(view), entries);
}

TEST(NodeEditTest, ComputeMbrIsTheUnionOfEntries) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  const std::vector<Entry> entries = {Entry{Rect{0, 0, 1, 1}, 0},
                                      Entry{Rect{2, -1, 3, 0.5f}, 1}};
  WriteNode(&file, id, /*level=*/0, entries);
  EXPECT_EQ(ViewNode(file, id).ComputeMbr(), (Rect{0, -1, 3, 1}));
}

TEST(NodeEditTest, WholeRewriteInPlace) {
  PagedFile file(kPageSize2K);
  const PageId id = file.Allocate();
  WriteNode(&file, id, /*level=*/1, std::vector<Entry>{{Rect{0, 0, 1, 1}, 42}});
  const std::vector<Entry> b = {Entry{Rect{5, 5, 6, 6}, 7},
                                Entry{Rect{1, 2, 3, 4}, 8}};
  WriteNode(&file, id, /*level=*/0, b);
  const NodeView view = ViewNode(file, id);
  EXPECT_EQ(view.level, 0);
  EXPECT_EQ(EntriesOf(view), b);
}

TEST(NodeEditTest, SlotEditsShiftTheColumns) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  std::vector<Entry> model = MakeEntries(5, 11, 10);
  WriteNode(&file, id, /*level=*/1, model);
  const Entry added{Rect{0.5f, 0.5f, 0.75f, 0.75f}, 99};
  InsertEntry(&file, id, 2, added);
  model.insert(model.begin() + 2, added);
  InsertEntry(&file, id, 6, added);  // at the count: an append
  model.push_back(added);
  EXPECT_EQ(EntriesOf(ViewNode(file, id)), model);
  EraseEntry(&file, id, 0);
  model.erase(model.begin());
  EraseEntry(&file, id, 5);  // the last slot
  model.pop_back();
  SetEntryRect(&file, id, 3, Rect{-1, -1, 2, 2});
  model[3].rect = Rect{-1, -1, 2, 2};
  const NodeView view = ViewNode(file, id);
  EXPECT_EQ(view.level, 1);
  EXPECT_EQ(EntriesOf(view), model);
}

// Seeded random edits on a page and the same edits on a vector model, from
// an empty node up to M entries and back down. After every step the view
// equals the model, and the page's bytes equal a twin page's that is
// rewritten whole from the model: an edit writes what a whole rewrite
// writes, and the slots past the count keep their stale bytes on both.
TEST(NodeEditTest, EditsMatchAWholeRewriteOfTheModel) {
  for (const uint32_t page_size : {kPageSize1K, kPageSize4K}) {
    const uint32_t capacity = NodeCapacity(page_size);
    PagedFile file(page_size);
    const PageId page = file.Allocate();
    const PageId twin = file.Allocate();
    Rng rng(page_size);
    const auto random_entry = [&rng] {
      const auto x = static_cast<Coord>(rng.Uniform());
      const auto y = static_cast<Coord>(rng.Uniform());
      const auto w = static_cast<Coord>(rng.Uniform(0.0, 0.1));
      const auto h = static_cast<Coord>(rng.Uniform(0.0, 0.1));
      return Entry{Rect{x, y, x + w, y + h},
                   static_cast<uint32_t>(rng.Next())};
    };
    const auto random_slot = [&rng](size_t bound) {
      return static_cast<uint32_t>(rng.UniformInt(bound));
    };
    std::vector<Entry> model;
    uint8_t level = 0;
    WriteNode(&file, page, level, model);
    size_t inserts = 0, erases = 0, rect_writes = 0, whole_writes = 0;
    size_t peak = 0;
    bool growing = true;
    while (growing || !model.empty()) {
      const uint64_t op = rng.UniformInt(16);
      if (op == 0) {
        // A whole-node write of about the same size, at a new level.
        const size_t lo = model.size() < 2 ? 0 : model.size() - 2;
        const size_t hi = std::min<size_t>(capacity, model.size() + 2);
        model.resize(lo + rng.UniformInt(hi - lo + 1));
        for (Entry& e : model) e = random_entry();
        level = static_cast<uint8_t>(rng.UniformInt(4));
        WriteNode(&file, page, level, model);
        ++whole_writes;
      } else if (op < 4) {
        if (model.empty()) continue;
        const uint32_t slot = random_slot(model.size());
        model[slot].rect = random_entry().rect;
        SetEntryRect(&file, page, slot, model[slot].rect);
        ++rect_writes;
      } else if ((op < 11) == growing && model.size() < capacity) {
        const uint32_t slot = random_slot(model.size() + 1);
        const Entry entry = random_entry();
        model.insert(model.begin() + slot, entry);
        InsertEntry(&file, page, slot, entry);
        ++inserts;
      } else if (!model.empty()) {
        const uint32_t slot = random_slot(model.size());
        model.erase(model.begin() + slot);
        EraseEntry(&file, page, slot);
        ++erases;
      }
      peak = std::max(peak, model.size());
      if (model.size() == capacity) growing = false;

      WriteNode(&file, twin, level, model);
      const NodeView view = ViewNode(file, page);
      ASSERT_EQ(view.level, level);
      ASSERT_EQ(EntriesOf(view), model) << "page size " << page_size;
      ASSERT_EQ(std::memcmp(file.PageData(page), file.PageData(twin),
                            page_size),
                0)
          << "page size " << page_size << " at " << model.size()
          << " entries";
    }
    EXPECT_EQ(peak, capacity);
    EXPECT_GT(inserts, capacity);
    EXPECT_GT(erases, capacity);
    EXPECT_GT(rect_writes, capacity / 2);
    EXPECT_GT(whole_writes, 10u);
  }
}

TEST(NodeEditTest, WriteRejectsMoreThanMEntries) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  const auto entries = MakeEntries(NodeCapacity(kPageSize1K) + 1, 4, 0);
  EXPECT_DEATH(WriteNode(&file, id, /*level=*/0, entries), "overflows");
}

TEST(NodeEditTest, InsertRejectsAFullNode) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  WriteNode(&file, id, /*level=*/0,
            MakeEntries(NodeCapacity(kPageSize1K), 4, 0));
  EXPECT_DEATH(InsertEntry(&file, id, 0, Entry{Rect{0, 0, 1, 1}, 7}),
               "full node");
}

TEST(NodeLayoutTest, WriteNodeWritesEntryColumns) {
  for (const uint32_t page_size : {kPageSize1K, kPageSize4K}) {
    PagedFile file(page_size);
    const PageId id = file.Allocate();
    const auto entries = MakeEntries(NodeCapacity(page_size), 5, 1000);
    WriteNode(&file, id, /*level=*/3, entries);
    const std::byte* page = file.PageData(id);
    uint16_t count = 0;
    std::memcpy(&count, page + kNodeCountByte, sizeof(count));
    EXPECT_EQ(count, entries.size());
    EXPECT_EQ(static_cast<uint8_t>(page[kNodeLevelByte]), 3);
    EXPECT_EQ(static_cast<uint8_t>(page[kNodeMagicByte]), kNodeMagic);
    // The ref column ends exactly at the last whole entry slot.
    EXPECT_LE(NodeFieldOffset(page_size, NodeColumn::kRef,
                              NodeCapacity(page_size)),
              page_size);
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const auto field = [&](NodeColumn column) {
        float value = 0;
        std::memcpy(&value, page + NodeFieldOffset(page_size, column, i),
                    sizeof(value));
        return value;
      };
      EXPECT_EQ(field(NodeColumn::kXl), entries[i].rect.xl);
      EXPECT_EQ(field(NodeColumn::kYl), entries[i].rect.yl);
      EXPECT_EQ(field(NodeColumn::kXu), entries[i].rect.xu);
      EXPECT_EQ(field(NodeColumn::kYu), entries[i].rect.yu);
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
  const auto entries = MakeEntries(30, 7, 0);
  WriteNode(&file, id, /*level=*/1, entries);
  const NodeView view = ViewNode(file, id);
  EXPECT_EQ(view.level, 1);
  EXPECT_FALSE(view.is_leaf());
  // The columns are the page's bytes, 4-byte aligned, not a copy.
  const std::byte* page = file.PageData(id);
  EXPECT_EQ(static_cast<const void*>(view.entries.xl),
            static_cast<const void*>(
                page + NodeFieldOffset(kPageSize1K, NodeColumn::kXl, 0)));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(view.entries.ref) % 4, 0u);
  EXPECT_EQ(EntriesOf(view), entries);
  Rect mbr = Rect::Empty();
  for (const Entry& e : entries) mbr = mbr.Union(e.rect);
  EXPECT_EQ(view.ComputeMbr(), mbr);
  const RectColumns rects_view = view.entries.rects();
  EXPECT_EQ(rects_view.size, entries.size());
  EXPECT_EQ(rects_view.index_at(7), 7u);
  EXPECT_EQ(rects_view.RectAt(7), entries[7].rect);
}

TEST(NodeViewTest, CheckedViewRejectsNonNodePages) {
  PagedFile file(kPageSize1K);
  const PageId zeroed = file.Allocate();  // no magic byte
  EXPECT_FALSE(CheckedViewNode(file, zeroed).has_value());
  EXPECT_DEATH(ViewNode(file, zeroed), "R-tree node");
  const PageId id = file.Allocate();
  WriteNode(&file, id, /*level=*/0, std::vector<Entry>{{Rect{0, 0, 1, 1}, 4}});
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

TEST(NodeCopyTest, OutOfOrderPageIsSortedIntoTheReadersCopy) {
  // A leaf out of xl order, with ties, so the sort moves entries and its
  // stability shows.
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  std::vector<Entry> stored;
  for (uint32_t i = 0; i < 40; ++i) {
    const auto xl = static_cast<Coord>((i * 7) % 13);
    stored.push_back(Entry{Rect{xl, 0.0f, xl + 1.0f, 1.0f}, i});
  }
  WriteNode(&file, id, /*level=*/0, stored);
  std::vector<Entry> expected = stored;
  const uint64_t expected_cost = ReferenceInsertionSort(&expected);
  ASSERT_NE(expected, stored) << "the page must need sorting";
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
  EXPECT_EQ(sorted.level, 0);
  EXPECT_EQ(EntriesOf(sorted), expected);
  EXPECT_EQ(EntriesOf(other), expected);
  EXPECT_EQ(cost.count(), expected_cost);
  EXPECT_EQ(their_cost.count(), expected_cost);
  EXPECT_GT(cost.count(), expected.size() - 1);
  // The page keeps its stored order.
  EXPECT_EQ(EntriesOf(ViewNode(file, id)), stored);
}

TEST(NodeCopyTest, OrderedPageIsItsOwnSortedForm) {
  PagedFile file(kPageSize1K);
  const PageId id = file.Allocate();
  std::vector<Entry> stored;
  for (uint32_t i = 0; i < 40; ++i) {
    const auto xl = static_cast<Coord>(i / 3);
    stored.push_back(Entry{Rect{xl, 0.0f, xl + 1.0f, 1.0f}, i});
  }
  WriteNode(&file, id, /*level=*/0, stored);
  NodeCopy copy;
  ComparisonCounter cost;
  const NodeView page = ViewNode(file, id);
  const NodeView sorted = SortedByLowerX(page, &copy, &cost);
  // No copy: the view is the page, at the insertion sort's cost on
  // ordered input.
  EXPECT_EQ(sorted.entries.xl, page.entries.xl);
  EXPECT_EQ(sorted.entries.ref, page.entries.ref);
  EXPECT_EQ(cost.count(), stored.size() - 1);
  std::vector<Entry> resorted = stored;
  EXPECT_EQ(ReferenceInsertionSort(&resorted), cost.count());

  WriteNode(&file, id, /*level=*/0, {});
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
  const auto rects = testutil::RandomRects(25, 9);
  WriteNode(&file, id, /*level=*/0, MakeEntries(25, 9, 5));
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
