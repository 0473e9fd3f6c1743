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
//
// The inputs are each tree's per-level profile and root MBR, which the
// tree computes once and keeps until it is mutated (RTree::Profile), so a
// plan costs O(levels) and decodes no page: served queries plan against
// trees that never change.

#ifndef RSJ_JOIN_COST_ESTIMATOR_H_
#define RSJ_JOIN_COST_ESTIMATOR_H_

#include "rtree/rtree.h"

namespace rsj {

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

// Estimates the cost of joining trees profiled as `r` and `s` under the
// uniformity assumption.
JoinCostEstimate EstimateJoinCost(const TreeProfile& r, const TreeProfile& s);

// The same, from the trees' own profiles. Both trees must share one page
// size.
JoinCostEstimate EstimateJoinCost(const RTree& r, const RTree& s);

}  // namespace rsj

#endif  // RSJ_JOIN_COST_ESTIMATOR_H_
