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
// place. `RectBlock` owns its columns: the engine's marked-entry subsets
// and window batches, built by copying rectangles in (with the predicate
// expansion of the within-distance join baked in when asked). Expansion
// grows every rectangle by the same margin, so a block built from
// xl-sorted rectangles stays xl-sorted.
//
// `index_at(i)` carries the slot of the source entry (or the IndexedRect's
// index), so kernel hit positions map back to entries without touching
// the source.

#ifndef RSJ_GEOM_RECT_BLOCK_H_
#define RSJ_GEOM_RECT_BLOCK_H_

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

class RectBlock {
 public:
  size_t size() const { return xl_.size(); }

  void Clear() {
    xl_.clear();
    yl_.clear();
    xu_.clear();
    yu_.clear();
    idx_.clear();
  }

  void Reserve(size_t n) {
    xl_.reserve(n);
    yl_.reserve(n);
    xu_.reserve(n);
    yu_.reserve(n);
    idx_.reserve(n);
  }

  void PushBack(const Rect& r, uint32_t index) {
    xl_.push_back(r.xl);
    yl_.push_back(r.yl);
    xu_.push_back(r.xu);
    yu_.push_back(r.yu);
    idx_.push_back(index);
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

  // Rebuilds as the compaction of `src` at `positions` (ascending kernel
  // hit positions), keeping the source indices — the block form of the
  // engine's marked-entry subsets.
  void GatherFrom(const RectColumns& src,
                  std::span<const uint32_t> positions) {
    Clear();
    Reserve(positions.size());
    for (const uint32_t p : positions) {
      PushBack(src.RectAt(p), src.index_at(p));
    }
  }

 private:
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
