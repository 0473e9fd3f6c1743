// Shared helpers for the test suites: deterministic random rectangle
// generation, tree construction, result-set canonicalization, and the
// brute-force chain-join oracle.

#ifndef RSJ_TESTS_TEST_UTIL_H_
#define RSJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "datagen/rng.h"
#include "exec/result_sink.h"
#include "geom/comparison_counter.h"
#include "geom/rect.h"
#include "join/join_options.h"
#include "join/predicate.h"

namespace rsj {
namespace testutil {

// Uniformly placed rectangles with mean extent `extent` inside [0,1]^2.
inline std::vector<Rect> RandomRects(size_t count, uint64_t seed,
                                     double extent = 0.05) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.Uniform(0.0, 1.0 - extent);
    const double y = rng.Uniform(0.0, 1.0 - extent);
    const double w = rng.Uniform(0.0, extent);
    const double h = rng.Uniform(0.0, extent);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + h)});
  }
  return rects;
}

// Clustered rectangles (Gaussian blobs) — closer to the paper's maps.
inline std::vector<Rect> ClusteredRects(size_t count, uint64_t seed,
                                        int clusters = 8,
                                        double extent = 0.01) {
  Rng rng(seed);
  std::vector<Point> centers;
  for (int c = 0; c < clusters; ++c) {
    centers.push_back(Point{static_cast<Coord>(rng.Uniform(0.1, 0.9)),
                            static_cast<Coord>(rng.Uniform(0.1, 0.9))});
  }
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Point& c = centers[rng.UniformInt(centers.size())];
    const double x = c.x + rng.Gaussian(0.0, 0.06);
    const double y = c.y + rng.Gaussian(0.0, 0.06);
    const double w = rng.Uniform(0.0, extent);
    const double h = rng.Uniform(0.0, extent);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + h)});
  }
  return rects;
}

// Sorts a pair list so result sets can be compared as sets.
inline std::vector<std::pair<uint32_t, uint32_t>> Canonical(
    std::vector<std::pair<uint32_t, uint32_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// Flattens a chunked result (the engines' native output representation)
// and sorts it, so chunked and flat results compare as sets.
inline std::vector<std::pair<uint32_t, uint32_t>> Canonical(
    const ResultChunkList& chunks) {
  return Canonical(chunks.CopyPairs());
}

// A chain join's tuples of object ids, one per relation.
using Tuples = std::vector<std::vector<uint32_t>>;

// Sorts tuples so chain results compare as multisets.
inline Tuples Sorted(Tuples tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// One phase of the brute-force chain join: every tuple of `tuples`, whose
// last members index `last`, extended by every member of `next` that
// satisfies `join`'s predicate against it, evaluated like a chain probe
// (the earlier relation is the R side). Sorted tuples stay sorted.
inline Tuples ExtendChainOracle(const Tuples& tuples,
                                const std::vector<Rect>& last,
                                const std::vector<Rect>& next,
                                const JoinOptions& join) {
  ComparisonCounter counter;
  Tuples extended;
  for (const std::vector<uint32_t>& tuple : tuples) {
    for (uint32_t j = 0; j < next.size(); ++j) {
      if (EvaluatePredicateCounted(join.predicate, join.epsilon,
                                   last[tuple.back()], next[j], &counter)) {
        std::vector<uint32_t> longer = tuple;
        longer.push_back(j);
        extended.push_back(std::move(longer));
      }
    }
  }
  return extended;
}

// The brute-force chain join over `rels` (one rectangle list per
// relation), sorted.
inline Tuples ChainOracle(const std::vector<std::vector<Rect>>& rels,
                          const JoinOptions& join) {
  Tuples tuples;
  for (uint32_t i = 0; i < rels[0].size(); ++i) tuples.push_back({i});
  for (size_t k = 1; k < rels.size(); ++k) {
    tuples = ExtendChainOracle(tuples, rels[k - 1], rels[k], join);
  }
  return tuples;
}

}  // namespace testutil
}  // namespace rsj

#endif  // RSJ_TESTS_TEST_UTIL_H_
