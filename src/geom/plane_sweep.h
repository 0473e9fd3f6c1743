// The paper's SortedIntersectionTest (§4.2): a two-pointer plane sweep that
// reports all intersecting pairs between two X-sorted rectangle sequences in
// O(|R| + |S| + k_x) time without any auxiliary dynamic data structure.
//
// The emission order of pairs is significant: SpatialJoin3/4/5 use it as the
// local read schedule for child pages (§4.3), so this implementation follows
// the paper's pseudocode exactly, including the tie-break (when the sweep
// line sits on equal xl values the S-sequence element is processed first,
// mirroring the paper's `IF r_i.xl < s_j.xl THEN ... ELSE ...`).
//
// Comparison accounting (the paper's CPU metric):
//   * one comparison for the top-level `r_i.xl < s_j.xl` test,
//   * one comparison for each `s_k.xl <= t.xu` x-overlap test (including the
//     final failing one that terminates the inner loop),
//   * one or two comparisons for the short-circuit y-overlap test.

#ifndef RSJ_GEOM_PLANE_SWEEP_H_
#define RSJ_GEOM_PLANE_SWEEP_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/comparison_counter.h"
#include "geom/indexed_rect.h"

namespace rsj {

// Sorts `seq` ascending by the rectangles' lower x coordinate, uncounted:
// the measured join path sorts node pages with a counted insertion sort
// (rtree/node.h, SortedByLowerX).
void SortByLowerX(std::vector<IndexedRect>* seq);

// True if `seq` is sorted ascending by lower x coordinate.
bool IsSortedByLowerX(std::span<const IndexedRect> seq);

namespace internal {

// The paper's InternalLoop: scans `seq` from `first_unmarked` while the
// x-projections still overlap rectangle `t`, testing y-overlap for each.
// `emit(other_index_in_seq)` is called for every intersecting partner.
template <typename EmitFn>
void SweepInternalLoop(const Rect& t, std::span<const IndexedRect> seq,
                       size_t first_unmarked, ComparisonCounter* counter,
                       EmitFn&& emit) {
  for (size_t k = first_unmarked; k < seq.size(); ++k) {
    const Rect& s = seq[k].rect;
    counter->Add(1);
    if (s.xl > t.xu) break;  // x-projections no longer overlap
    counter->Add(1);
    if (t.yl > s.yu) continue;
    counter->Add(1);
    if (t.yu < s.yl) continue;
    emit(k);
  }
}

}  // namespace internal

// Reports every intersecting pair between `rseq` and `sseq` (both sorted by
// lower x) through `out(r_slot_index, s_slot_index)`, where the arguments are
// the `IndexedRect::index` fields of the two partners. Pairs are emitted in
// plane-sweep order. Comparisons are charged to `counter`.
template <typename OutputFn>
void SortedIntersectionTest(std::span<const IndexedRect> rseq,
                            std::span<const IndexedRect> sseq,
                            ComparisonCounter* counter, OutputFn&& out) {
  size_t i = 0;
  size_t j = 0;
  while (i < rseq.size() && j < sseq.size()) {
    counter->Add(1);
    if (rseq[i].rect.xl < sseq[j].rect.xl) {
      const IndexedRect& t = rseq[i];
      internal::SweepInternalLoop(
          t.rect, sseq, j, counter,
          [&](size_t k) { out(t.index, sseq[k].index); });
      ++i;
    } else {
      const IndexedRect& t = sseq[j];
      internal::SweepInternalLoop(
          t.rect, rseq, i, counter,
          [&](size_t k) { out(rseq[k].index, t.index); });
      ++j;
    }
  }
}

// Convenience wrapper that materializes the pairs (sweep order preserved).
std::vector<std::pair<uint32_t, uint32_t>> SortedIntersectionTestPairs(
    std::span<const IndexedRect> rseq, std::span<const IndexedRect> sseq,
    ComparisonCounter* counter);

// Reference nested-loop intersection enumeration over two plain rectangle
// sets; used as the correctness oracle in tests. O(n * m).
std::vector<std::pair<uint32_t, uint32_t>> NestedLoopIntersectionPairs(
    std::span<const Rect> rseq, std::span<const Rect> sseq);

// Plane-sweep join over two full rectangle collections (not node-local):
// sorts copies of the inputs and runs SortedIntersectionTest. Serves as the
// scale-proof independent oracle for whole-dataset joins (Table 8 counts).
// Returns the number of intersecting pairs; appends pairs to `pairs_out`
// when non-null (as (r_position, s_position) original positions).
uint64_t FullSweepJoin(std::span<const Rect> rseq, std::span<const Rect> sseq,
                       std::vector<std::pair<uint32_t, uint32_t>>* pairs_out);

}  // namespace rsj

#endif  // RSJ_GEOM_PLANE_SWEEP_H_
