// Batch geometry kernels over rectangle columns (geom/rect_block.h: a
// RectBlock, or a node's entries on their page), with scalar/SIMD A/B
// dispatch.
//
// Every kernel here is a drop-in replacement for one of the engine's scalar
// loops (one query rectangle against a node's entries, the marking of a
// node's entries that meet the parent intersection, the plane sweep of a
// node pair, the within-distance leaf test) and obeys one hard contract:
// for any input, both dispatch modes produce the *same hit positions in the
// same order* and charge the *same number of comparisons* to the
// ComparisonCounter as the original one-rectangle-at-a-time code.
// The paper counts executed floating point comparisons as its CPU metric
// (§4), and an early-exit test executes a data-dependent number of them —
// so the vector path computes all four lane masks branch-free and then
// charges what the scalar code *would* have executed:
//
//   count(element) = 1 + [survived test 1] + [survived tests 1-2]
//                      + [survived tests 1-3]
//
// which telescopes to `lanes + popcount(m1) + popcount(m12) +
// popcount(m123)` per vector group (m_k = elements still alive after the
// k-th early-exit test). Operand order matters for the count — whether the
// block element or the loose rectangle is the `this` of IntersectsCounted
// decides which side's bound each early exit reads — so the overlap kernel
// takes an explicit OverlapSubject.
//
// Dispatch: the SIMD path (SSE2, compiled in on every x86-64 build) is the
// default; `RSJ_GEOM_KERNELS=scalar` in the environment — or
// SetGeomKernelMode — forces the scalar reference path for A/B runs and
// the forced-scalar CI job. NaN inputs behave identically in both paths
// (ordered `>` comparisons are false for NaN in scalar C++ and in
// _mm_cmpgt_ps alike), though tree data is NaN-free by construction.

#ifndef RSJ_GEOM_SIMD_KERNELS_H_
#define RSJ_GEOM_SIMD_KERNELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geom/comparison_counter.h"
#include "geom/rect_block.h"

namespace rsj {

enum class GeomKernelMode {
  kScalar,  // reference loops, bit-for-bit the pre-block code paths
  kSimd,    // vectorized batch kernels (falls back to scalar lanes on tails)
};

const char* GeomKernelModeName(GeomKernelMode mode);

// True when the vector implementation is compiled into this binary (x86-64
// SSE2 baseline and not disabled at configure time). When false, kSimd
// degrades to the scalar implementation.
bool GeomSimdCompiledIn();

// Process-wide dispatch mode. Initialized on first use from the
// RSJ_GEOM_KERNELS environment variable ("scalar" or "simd"); defaults to
// kSimd when compiled in. Thread-safe (atomic); tests and benches may
// switch it between runs, not concurrently with kernel calls they compare.
GeomKernelMode ActiveGeomKernelMode();
void SetGeomKernelMode(GeomKernelMode mode);

// Which operand of the overlap test is the `this` of
// Rect::IntersectsCounted — the early-exit order (and therefore the charged
// comparison count) depends on it.
enum class OverlapSubject {
  kBlock,  // block_element.IntersectsCounted(query, ...)
  kQuery,  // query.IntersectsCounted(block_element, ...)
};

// Batch form of the engine's `for (e : entries) if
// (e.IntersectsCounted(query))` loops: appends the positions of every
// block element intersecting `query` to `*hits` (cleared first, ascending
// order) and charges the exact scalar comparison count to `counter`.
// Returns the number of hits.
size_t CountedOverlapHits(const RectColumns& block, const Rect& query,
                          OverlapSubject subject, ComparisonCounter* counter,
                          std::vector<uint32_t>* hits);

// The marking of §4.2's search-space restriction in one pass: tests every
// block element against `query` exactly as CountedOverlapHits does (same
// subject, same charge) and writes the hits' rectangles and index_at
// values straight into `*marked` (emptied first; in block order, so an
// xl-sorted block stays sorted). Every element is stored at the output
// cursor, which advances by its hit bit, so no hit takes a branch.
// `marked` must not hold `block`'s columns. Returns the number of hits.
size_t CountedOverlapMark(const RectColumns& block, const Rect& query,
                          OverlapSubject subject, ComparisonCounter* counter,
                          RectBlock* marked);

// Batch form of the within-distance leaf test: appends the positions of
// every block element with MinDist2(query) <= epsilon^2 (double-precision
// math, identical to Rect::MinDist2) to `*hits` (cleared, ascending) and
// charges the flat 5 comparisons per element that
// EvaluatePredicateCounted(kWithinDistance, ...) charges. The block must
// hold *unexpanded* rectangles — this is the exact test, not the filter.
size_t CountedWithinDistanceHits(const RectColumns& block, const Rect& query,
                                 double epsilon, ComparisonCounter* counter,
                                 std::vector<uint32_t>* hits);

// Block form of SortedIntersectionTest (the §4.2 two-pointer plane sweep)
// for one node pair, fused into one call: the two-pointer advance and every
// internal scan run inline, and the qualifying pairs — the blocks' index_at
// values, (r, s) — are appended to the caller's `*pairs` in exactly the
// scalar sweep's order (the order is the read schedule of SJ3/4/5). Both
// blocks must be xl-sorted. The charge is the scalar sweep's: one
// comparison per advance step, one x test per scanned element (including
// the failing one that ends a scan) and one-or-two y tests for each element
// that survived the x test.
//
// kScalar runs the reference loop, one push_back per hit. kSimd stages the
// pairs: each scan stores every candidate into a fixed stage of 256 pairs
// in the call's frame at a cursor that advances by the candidate's hit bit,
// with the y tests computed without branches. A short scan (fewer than 16
// x survivors) runs inline; a scan whose sixteenth element still overlaps
// in x goes to a vector stage that locates the break position first and
// then mask-tests y over the surviving range, four lanes per group. The
// stage goes to `*pairs` in order whenever a short scan (at most 15
// candidates) or a vector group (4) might not fit, and at the end of the
// call, so staging changes neither the pair order nor the charge.
void SortedIntersectionTestBlocks(
    const RectColumns& rseq, const RectColumns& sseq,
    ComparisonCounter* counter,
    std::vector<std::pair<uint32_t, uint32_t>>* pairs);

}  // namespace rsj

#endif  // RSJ_GEOM_SIMD_KERNELS_H_
