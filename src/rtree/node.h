// One R-tree node page: its layout, the view that reads it in place, and
// the edits that tree mutation makes to it in place.
//
// A node page stores its entries as coordinate columns behind a 4-byte
// header, M = NodeCapacity(page_size) slots each (Table 1, rtree/entry.h):
//
//     [uint16 count][uint8 level][uint8 magic] xl[M] yl[M] xu[M] yu[M] ref[M]
//
// Entry i is slot i of every column, and every column is 4-byte aligned.
// This module is the only one that knows the layout; other code reaches
// raw bytes through `NodeFieldOffset`.
//
// Readers (the join's accessors, the window probe, the partitioner, the
// chain's root hints, the load-time walk) take a `NodeView` of the page
// bytes: it copies nothing, the batch kernels (geom/simd_kernels.h) scan
// its columns, and it stays valid until the page is rewritten. A reader
// that needs a page in lower-x order or grown by the predicate expansion
// copies it into a `NodeCopy` of its own, so readers share nothing.
//
// Tree mutation (rtree/rtree.h) reads pages through the same view and
// edits them in place: a whole node written from entries, an entry
// inserted at a slot or erased from one, one entry's rectangle set. Each
// edit writes exactly the header and the slots below the new count that
// a whole rewrite from the resulting entries would; the slots at and past
// the count keep their stale bytes.

#ifndef RSJ_RTREE_NODE_H_
#define RSJ_RTREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/rect_block.h"
#include "rtree/entry.h"

namespace rsj {

// The columns of a node page, in page order, and the header's bytes.
enum class NodeColumn : uint32_t { kXl = 0, kYl, kXu, kYu, kRef };
inline constexpr size_t kNodeCountByte = 0;  // uint16
inline constexpr size_t kNodeLevelByte = 2;
inline constexpr size_t kNodeMagicByte = 3;

// Byte offset of slot `i` of `column` on a node page of `page_size` bytes.
constexpr size_t NodeFieldOffset(uint32_t page_size, NodeColumn column,
                                 uint32_t i) {
  return kNodeHeaderBytes +
         (static_cast<size_t>(column) * NodeCapacity(page_size) + i) * 4;
}

// A node's entries as columns, non-owning: entry i is the rectangle
// (xl[i], yl[i], xu[i], yu[i]) with `ref[i]`.
struct EntryColumns {
  const Coord* xl = nullptr;
  const Coord* yl = nullptr;
  const Coord* xu = nullptr;
  const Coord* yu = nullptr;
  const uint32_t* ref = nullptr;
  uint32_t size = 0;

  Rect rect(uint32_t i) const { return Rect{xl[i], yl[i], xu[i], yu[i]}; }
  Entry entry(uint32_t i) const { return Entry{rect(i), ref[i]}; }
  // The rectangles as the kernels scan them; a position is its slot.
  RectColumns rects() const {
    return RectColumns{xl, yl, xu, yu, nullptr, size};
  }
};

// A node as its readers scan it: on its page, or in a reader's copy.
struct NodeView {
  uint8_t level = 0;  // 0 = leaf
  EntryColumns entries;

  bool is_leaf() const { return level == 0; }
  uint32_t size() const { return entries.size; }
  // Minimum bounding rectangle of all entries (Rect::Empty() when empty).
  Rect ComputeMbr() const;
};

// Views the node on page `id` in place. Aborts when the page holds no node
// (no magic, or a count above capacity).
NodeView ViewNode(const PagedFile& file, PageId id);
// ViewNode for pages that may be corrupt: nothing instead of an abort.
std::optional<NodeView> CheckedViewNode(const PagedFile& file, PageId id);

// A reader's own copy of a node's entries, reused from visit to visit.
class NodeCopy {
 public:
  // Copies `entries` into lower-x order with a stable insertion sort
  // (§4.2) and returns its comparisons, one per comparator evaluation.
  // R*-splits leave entries nearly sorted, so the adaptive sort finishes
  // in about n comparisons — the paper's low sorting costs (Table 4).
  uint64_t AssignSortedByLowerX(const EntryColumns& entries);
  // Copies `entries` with every rectangle grown by `margin`.
  void AssignExpanded(const EntryColumns& entries, double margin);

  // The copy's entries; valid until the next Assign.
  EntryColumns columns() const {
    return EntryColumns{xl_.data(), yl_.data(), xu_.data(),
                        yu_.data(), ref_.data(),
                        static_cast<uint32_t>(ref_.size())};
  }

 private:
  void Resize(size_t n);
  void Set(uint32_t k, const Rect& rect, uint32_t ref);

  std::vector<Coord> xl_, yl_, xu_, yu_;
  std::vector<uint32_t> ref_;
  std::vector<uint32_t> order_;  // the sort's slot permutation
};

// `node` in lower-x order, as the sweep readers scan it (§4.2): `node`
// itself when it already is (R*-insertion and STR keep data pages so),
// else its sorted copy in `*copy`. `charge`, when set, gets the insertion
// sort's comparisons: n - 1 on entries already in order.
NodeView SortedByLowerX(const NodeView& node, NodeCopy* copy,
                        ComparisonCounter* charge);

// Writes a node of `level` holding `entries` onto page `id`: the header
// and slots [0, entries.size()) of every column. Aborts when the entries
// exceed NodeCapacity(file->page_size()).
void WriteNode(PagedFile* file, PageId id, uint8_t level,
               std::span<const Entry> entries);

// Inserts `entry` at `slot` (at most the count) of the node on page `id`,
// moving slots [slot, count) up by one. Aborts when the node is full.
void InsertEntry(PagedFile* file, PageId id, uint32_t slot,
                 const Entry& entry);

// Erases `slot` (below the count) of the node on page `id`, moving the
// later slots down by one.
void EraseEntry(PagedFile* file, PageId id, uint32_t slot);

// Sets the rectangle of `slot` (below the count) of the node on page `id`.
void SetEntryRect(PagedFile* file, PageId id, uint32_t slot, const Rect& rect);

}  // namespace rsj

#endif  // RSJ_RTREE_NODE_H_
