#include "rtree/node.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.h"

namespace rsj {

namespace {

uint16_t CountOf(const std::byte* page) {
  uint16_t count = 0;
  std::memcpy(&count, page + kNodeCountByte, sizeof(count));
  return count;
}

// The node on one page, edited in place. Every column has 4-byte slots,
// written as the bytes of the Coord or ref they hold.
struct PageSlots {
  PageSlots(PagedFile* file, PageId id)
      : page(file->MutablePageData(id)), page_size(file->page_size()) {}

  std::byte* at(NodeColumn column, uint32_t slot) const {
    return page + NodeFieldOffset(page_size, column, slot);
  }
  void set_count(uint32_t count) const {
    const auto stored = static_cast<uint16_t>(count);
    std::memcpy(page + kNodeCountByte, &stored, sizeof(stored));
  }
  void SetRect(uint32_t slot, const Rect& rect) const {
    std::memcpy(at(NodeColumn::kXl, slot), &rect.xl, sizeof(Coord));
    std::memcpy(at(NodeColumn::kYl, slot), &rect.yl, sizeof(Coord));
    std::memcpy(at(NodeColumn::kXu, slot), &rect.xu, sizeof(Coord));
    std::memcpy(at(NodeColumn::kYu, slot), &rect.yu, sizeof(Coord));
  }
  void Set(uint32_t slot, const Entry& entry) const {
    SetRect(slot, entry.rect);
    std::memcpy(at(NodeColumn::kRef, slot), &entry.ref, sizeof(entry.ref));
  }
  // Moves slots [from, from + n) of every column to [to, to + n).
  void Move(uint32_t from, uint32_t to, uint32_t n) const {
    for (const NodeColumn column : {NodeColumn::kXl, NodeColumn::kYl,
                                    NodeColumn::kXu, NodeColumn::kYu,
                                    NodeColumn::kRef}) {
      std::memmove(at(column, to), at(column, from), size_t{n} * 4);
    }
  }

  std::byte* const page;
  const uint32_t page_size;
};

}  // namespace

Rect NodeView::ComputeMbr() const {
  if (entries.size == 0) return Rect::Empty();
  // A min/max fold from the first entry: equal to the Union fold for
  // stored (valid) entries, without Union's per-entry emptiness branches.
  Rect mbr = entries.rect(0);
  for (uint32_t i = 1; i < entries.size; ++i) {
    mbr.xl = std::min(mbr.xl, entries.xl[i]);
    mbr.yl = std::min(mbr.yl, entries.yl[i]);
    mbr.xu = std::max(mbr.xu, entries.xu[i]);
    mbr.yu = std::max(mbr.yu, entries.yu[i]);
  }
  return mbr;
}

std::optional<NodeView> CheckedViewNode(const PagedFile& file, PageId id) {
  const std::byte* page = file.PageData(id);
  const uint32_t page_size = file.page_size();
  const uint16_t count = CountOf(page);
  if (static_cast<uint8_t>(page[kNodeMagicByte]) != kNodeMagic ||
      count > NodeCapacity(page_size)) {
    return std::nullopt;
  }
  // Pages start at least 4-byte aligned, and so does every column; the
  // columns hold the bytes of the floats and refs the edits below wrote.
  const auto column = [&](NodeColumn c) {
    return reinterpret_cast<const Coord*>(page +
                                          NodeFieldOffset(page_size, c, 0));
  };
  return NodeView{
      static_cast<uint8_t>(page[kNodeLevelByte]),
      EntryColumns{column(NodeColumn::kXl), column(NodeColumn::kYl),
                   column(NodeColumn::kXu), column(NodeColumn::kYu),
                   reinterpret_cast<const uint32_t*>(column(NodeColumn::kRef)),
                   count}};
}

NodeView ViewNode(const PagedFile& file, PageId id) {
  const std::optional<NodeView> view = CheckedViewNode(file, id);
  RSJ_CHECK_MSG(view.has_value(), "page does not contain an R-tree node");
  return *view;
}

void NodeCopy::Resize(size_t n) {
  xl_.resize(n);
  yl_.resize(n);
  xu_.resize(n);
  yu_.resize(n);
  ref_.resize(n);
}

uint64_t NodeCopy::AssignSortedByLowerX(const EntryColumns& entries) {
  // Insertion sort of the slot permutation by xl: the comparisons and the
  // stable order of sorting the entries themselves, then one gather.
  const uint32_t n = entries.size;
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  uint64_t comparisons = 0;
  for (uint32_t i = 1; i < n; ++i) {
    const uint32_t pending = order_[i];
    uint32_t j = i;
    while (j > 0) {
      ++comparisons;
      if (!(entries.xl[pending] < entries.xl[order_[j - 1]])) break;
      order_[j] = order_[j - 1];
      --j;
    }
    order_[j] = pending;
  }
  Resize(n);
  for (uint32_t k = 0; k < n; ++k) {
    Set(k, entries.rect(order_[k]), entries.ref[order_[k]]);
  }
  return comparisons;
}

void NodeCopy::AssignExpanded(const EntryColumns& entries, double margin) {
  Resize(entries.size);
  for (uint32_t i = 0; i < entries.size; ++i) {
    Set(i, entries.rect(i).Expanded(margin), entries.ref[i]);
  }
}

void NodeCopy::Set(uint32_t k, const Rect& rect, uint32_t ref) {
  xl_[k] = rect.xl;
  yl_[k] = rect.yl;
  xu_[k] = rect.xu;
  yu_[k] = rect.yu;
  ref_[k] = ref;
}

NodeView SortedByLowerX(const NodeView& node, NodeCopy* copy,
                        ComparisonCounter* charge) {
  const EntryColumns& entries = node.entries;
  if (std::is_sorted(entries.xl, entries.xl + entries.size)) {
    // The sort would move nothing and charge one comparison per entry
    // after the first.
    if (charge != nullptr && entries.size > 0) charge->Add(entries.size - 1);
    return node;
  }
  const uint64_t comparisons = copy->AssignSortedByLowerX(entries);
  if (charge != nullptr) charge->Add(comparisons);
  return NodeView{node.level, copy->columns()};
}

void WriteNode(PagedFile* file, PageId id, uint8_t level,
               std::span<const Entry> entries) {
  RSJ_CHECK_MSG(entries.size() <= NodeCapacity(file->page_size()),
                "node overflows its page");
  const PageSlots page(file, id);
  page.set_count(static_cast<uint32_t>(entries.size()));
  page.page[kNodeLevelByte] = static_cast<std::byte>(level);
  page.page[kNodeMagicByte] = static_cast<std::byte>(kNodeMagic);
  for (uint32_t i = 0; i < entries.size(); ++i) page.Set(i, entries[i]);
}

void InsertEntry(PagedFile* file, PageId id, uint32_t slot,
                 const Entry& entry) {
  const PageSlots page(file, id);
  const uint32_t count = CountOf(page.page);
  RSJ_CHECK_MSG(count < NodeCapacity(page.page_size),
                "insert into a full node");
  RSJ_CHECK(slot <= count);
  page.Move(slot, slot + 1, count - slot);
  page.Set(slot, entry);
  page.set_count(count + 1);
}

void EraseEntry(PagedFile* file, PageId id, uint32_t slot) {
  const PageSlots page(file, id);
  const uint32_t count = CountOf(page.page);
  RSJ_CHECK(slot < count);
  page.Move(slot + 1, slot, count - slot - 1);
  page.set_count(count - 1);
}

void SetEntryRect(PagedFile* file, PageId id, uint32_t slot,
                  const Rect& rect) {
  const PageSlots page(file, id);
  RSJ_CHECK(slot < CountOf(page.page));
  page.SetRect(slot, rect);
}

}  // namespace rsj
