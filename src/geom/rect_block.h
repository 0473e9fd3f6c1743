// Structure-of-arrays rectangles — the batch-friendly layout the kernels
// scan.
//
// The join hot loops test one rectangle against every entry of a node (or
// against a marked subset of it). Stored as four contiguous coordinate
// arrays (xl[] / yl[] / xu[] / yu[]) the rectangles let the batch kernels
// in geom/simd_kernels.h compare 4+ entries per instruction and give the
// scalar fallback dense, prefetchable streams.
//
// `RectColumns` is the non-owning form the kernels take: four column
// pointers, a size and an optional index column. A node's entries on its
// page are such columns (rtree/node.h), so the kernels scan a page in
// place. `RectBlock` owns its columns: the engine's window batches, built
// by copying rectangles in (with the predicate expansion of the
// within-distance join baked in when asked), and its marked-entry subsets,
// which the marking kernel writes in place. Expansion grows every
// rectangle by the same margin, so a block built from xl-sorted rectangles
// stays xl-sorted.
//
// `index_at(i)` carries the slot of the source entry (or the IndexedRect's
// index), so kernel hit positions map back to entries without touching
// the source.

#ifndef RSJ_GEOM_RECT_BLOCK_H_
#define RSJ_GEOM_RECT_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/indexed_rect.h"
#include "geom/rect.h"

namespace rsj {

// Non-owning columns of `size` rectangles: rectangle i is (xl[i], yl[i],
// xu[i], yu[i]). `index` maps position i to its source slot; without it
// (nullptr) every position is its own slot.
struct RectColumns {
  const Coord* xl = nullptr;
  const Coord* yl = nullptr;
  const Coord* xu = nullptr;
  const Coord* yu = nullptr;
  const uint32_t* index = nullptr;
  size_t size = 0;

  Rect RectAt(size_t i) const { return Rect{xl[i], yl[i], xu[i], yu[i]}; }

  uint32_t index_at(size_t i) const {
    return index != nullptr ? index[i] : static_cast<uint32_t>(i);
  }
};

// Writable columns of a RectBlock, for a kernel that fills it in place.
struct WritableRectColumns {
  Coord* xl;
  Coord* yl;
  Coord* xu;
  Coord* yu;
  uint32_t* index;
};

// The columns are storage that grows and never shrinks: `size()` counts
// the rectangles held, so a block reused per node pair allocates only until
// it has held its largest node.
class RectBlock {
 public:
  size_t size() const { return size_; }

  void Clear() { size_ = 0; }

  void PushBack(const Rect& r, uint32_t index) {
    if (size_ == idx_.size()) Reserve(std::max<size_t>(16, 2 * size_));
    xl_[size_] = r.xl;
    yl_[size_] = r.yl;
    xu_[size_] = r.xu;
    yu_[size_] = r.yu;
    idx_[size_] = index;
    ++size_;
  }

  // Reconstructs the rectangle at position `i`.
  Rect RectAt(size_t i) const {
    return Rect{xl_[i], yl_[i], xu_[i], yu_[i]};
  }

  // The source slot / identity the rectangle at position `i` maps back to.
  uint32_t index_at(size_t i) const { return idx_[i]; }

  // The block as the kernels scan it; valid until the block changes.
  operator RectColumns() const {  // NOLINT: a block is its columns
    return RectColumns{xl_.data(), yl_.data(), xu_.data(),
                       yu_.data(), idx_.data(), size()};
  }

  // Empties the block and returns its columns with room for `n`
  // rectangles, for a kernel that writes them in place (the marking kernel
  // of geom/simd_kernels.h); Resize(count) then keeps the first `count`.
  WritableRectColumns Overwrite(size_t n) {
    size_ = 0;
    Reserve(n);
    return WritableRectColumns{xl_.data(), yl_.data(), xu_.data(),
                               yu_.data(), idx_.data()};
  }

  // Keeps the first `count` rectangles written since Overwrite(n),
  // count <= n.
  void Resize(size_t count) { size_ = count; }

  // Rebuilds from plain rectangles, `index_at(i) == i`. When
  // `expansion > 0` every rectangle is grown via Rect::Expanded.
  void AssignRects(std::span<const Rect> rects, double expansion) {
    Clear();
    Reserve(rects.size());
    if (expansion > 0.0) {
      for (uint32_t i = 0; i < rects.size(); ++i) {
        PushBack(rects[i].Expanded(expansion), i);
      }
    } else {
      for (uint32_t i = 0; i < rects.size(); ++i) {
        PushBack(rects[i], i);
      }
    }
  }

  // Rebuilds from IndexedRects, preserving their `index` fields.
  void AssignIndexed(std::span<const IndexedRect> rects) {
    Clear();
    Reserve(rects.size());
    for (const IndexedRect& r : rects) PushBack(r.rect, r.index);
  }

 private:
  // Grows the storage to room for `n` rectangles at least.
  void Reserve(size_t n) {
    if (n <= idx_.size()) return;
    xl_.resize(n);
    yl_.resize(n);
    xu_.resize(n);
    yu_.resize(n);
    idx_.resize(n);
  }

  size_t size_ = 0;
  std::vector<Coord> xl_;
  std::vector<Coord> yl_;
  std::vector<Coord> xu_;
  std::vector<Coord> yu_;
  std::vector<uint32_t> idx_;
};

// True if the columns are sorted ascending by lower x — the precondition
// of the plane-sweep kernels (mirrors IsSortedByLowerX in
// geom/plane_sweep.h).
inline bool IsSortedByLowerXBlock(const RectColumns& block) {
  for (size_t i = 1; i < block.size; ++i) {
    if (block.xl[i] < block.xl[i - 1]) return false;
  }
  return true;
}

}  // namespace rsj

#endif  // RSJ_GEOM_RECT_BLOCK_H_
