// Configuration of the spatial join engine: the algorithm ladder SJ1..SJ5
// of the paper plus the Table 4 "version (I)" variant, and the policies
// (a)/(b)/(c) for joining trees of different height (§4.4).

#ifndef RSJ_JOIN_JOIN_OPTIONS_H_
#define RSJ_JOIN_JOIN_OPTIONS_H_

#include <cstdint>

#include "join/predicate.h"

namespace rsj {

enum class JoinAlgorithm {
  // §4.1: straightforward nested-loop tree matching; pages read in
  // discovery order (S entries outer, R entries inner).
  kSJ1,
  // §4.2: SJ1 + restriction of the search space to the intersection of the
  // parent rectangles (marking scan, then nested loops over marked).
  kSJ2,
  // Table 4 version (I): nodes sorted on read, plane-sweep pair finding,
  // but *no* search-space restriction.
  kSweepUnrestricted,
  // §4.3: restriction + sorting + plane sweep; the sweep's output order is
  // the read schedule ("local plane-sweep order").
  kSJ3,
  // SJ3 + pinning of the page with maximal degree (the paper's winner).
  kSJ4,
  // Like SJ4 but the read schedule is the z-order of the intersection
  // centers (local z-order with pinning).
  kSJ5,
};

// §4.4: processing a directory node against a data node when the trees
// have different heights.
enum class HeightPolicy {
  kPerPairQueries,   // (a) one window query per qualifying pair
  kBatchedSubtree,   // (b) all window queries of a subtree in one traversal
  kPinnedQueries,    // (c) pair order by plane sweep, subtree root pinned
};

struct JoinOptions {
  JoinAlgorithm algorithm = JoinAlgorithm::kSJ4;
  HeightPolicy height_policy = HeightPolicy::kBatchedSubtree;

  // LRU buffer budget in bytes (the paper uses 0/8K/32K/128K/512K).
  uint64_t buffer_bytes = 128 * 1024;

  // Join operator (§2.1). The default reproduces the paper's
  // MBR-spatial-join; other predicates reuse the same traversal with
  // rectangle intersection as the superset filter.
  JoinPredicate predicate = JoinPredicate::kIntersects;

  // Distance threshold for JoinPredicate::kWithinDistance.
  double epsilon = 0.0;

  // Two-tier refinement (geom/raster_interval.h): classify candidate
  // pairs on raster-interval signatures — TRUE-HIT / REJECT /
  // INCONCLUSIVE — before paying the exact segment-intersection tests.
  // Only the refinement entry points (join/refinement.h) read these; the
  // MBR-only filter executors ignore them.
  bool refine_raster = false;
  // Grid resolution: 2^bits x 2^bits cells over the joined universes
  // (clamped to [1, 16]). Finer grids reject more and cost more
  // signature bytes; 14 clears the bench_refinement floor on the
  // street/river workloads.
  unsigned raster_grid_bits = 14;
};

// Short display names ("SJ1".."SJ5", "SweepI").
const char* JoinAlgorithmName(JoinAlgorithm algorithm);
const char* HeightPolicyName(HeightPolicy policy);

// True when the algorithm restricts node entries to the parent
// intersection rectangle before pair finding.
constexpr bool RestrictsSearchSpace(JoinAlgorithm a) {
  return a == JoinAlgorithm::kSJ2 || a == JoinAlgorithm::kSJ3 ||
         a == JoinAlgorithm::kSJ4 || a == JoinAlgorithm::kSJ5;
}

// True when node entries are sorted by xl on read and pairs are found by
// the plane sweep instead of nested loops.
constexpr bool UsesPlaneSweep(JoinAlgorithm a) {
  return a == JoinAlgorithm::kSweepUnrestricted || a == JoinAlgorithm::kSJ3 ||
         a == JoinAlgorithm::kSJ4 || a == JoinAlgorithm::kSJ5;
}

// True when the highest-degree child page is pinned and drained.
constexpr bool UsesPinning(JoinAlgorithm a) {
  return a == JoinAlgorithm::kSJ4 || a == JoinAlgorithm::kSJ5;
}

// True when the read schedule is sorted by z-order of intersection centers.
constexpr bool UsesZOrderSchedule(JoinAlgorithm a) {
  return a == JoinAlgorithm::kSJ5;
}

}  // namespace rsj

#endif  // RSJ_JOIN_JOIN_OPTIONS_H_
