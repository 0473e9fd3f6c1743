// Analytic join-cost estimation.
//
// The paper cites Günther's model for estimating spatial join cost [9] and
// notes that an exact analysis for R*-trees "seems to be almost impossible"
// (§4). This module implements the classical transformation-based estimate
// anyway, as a planning aid: under a uniformity assumption, the expected
// number of qualifying node pairs per level is
//
//   E[pairs] = n_r * n_s * (w_r + w_s)(h_r + h_s) / (W * H)
//
// where (w, h) are mean directory rectangle extents and (W, H) the
// data-space extent — the Minkowski-sum argument. From the pair counts the
// estimator derives expected page reads (each qualifying pair below the
// roots costs at most two reads) and expected comparison counts for SJ1.
// Tests validate it within small factors on the synthetic workloads; the
// skew of real data is exactly why the paper measures instead of models.

#ifndef RSJ_JOIN_COST_ESTIMATOR_H_
#define RSJ_JOIN_COST_ESTIMATOR_H_

#include <vector>

#include "rtree/rtree.h"

namespace rsj {

// Per-level aggregate statistics used by the estimator.
struct LevelProfile {
  size_t nodes = 0;          // nodes on this level
  double mean_width = 0.0;   // mean rectangle width of the level's entries
  double mean_height = 0.0;  // mean rectangle height
  size_t entries = 0;        // entries on this level
};

// Scans the tree and profiles every level (index 0 = leaf level).
std::vector<LevelProfile> ProfileTree(const RTree& tree);

struct JoinCostEstimate {
  double node_pairs = 0.0;       // expected qualifying node pairs (all levels)
  double page_reads = 0.0;       // expected page reads without a buffer
  double sj1_comparisons = 0.0;  // expected SJ1 comparison count
  double result_pairs = 0.0;     // expected join result size
  // The geometry the estimate was made on, for plan decisions whose cost
  // scales with object extent (the planner's raster-cell pricing): the
  // shared data-space extent and each side's leaf level, whose entries
  // are the data objects.
  double space_width = 0.0;
  double space_height = 0.0;
  LevelProfile r_leaf;
  LevelProfile s_leaf;
};

// Estimates the cost of joining `r` and `s` under the uniformity
// assumption. Both trees must share one page size.
JoinCostEstimate EstimateJoinCost(const RTree& r, const RTree& s);

}  // namespace rsj

#endif  // RSJ_JOIN_COST_ESTIMATOR_H_
