#include "engine/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "geom/raster_interval.h"

namespace rsj {

namespace {

// The variant / spill / prefetch decisions shared by both plan shapes.
void DecideFromEstimate(const PlannerOptions& options, PlanChoice* plan) {
  const JoinCostEstimate& est = plan->estimate;
  if (est.sj1_comparisons <= options.sj1_comparison_ceiling) {
    plan->algorithm = JoinAlgorithm::kSJ1;
  } else if (est.page_reads >= options.zorder_page_read_floor) {
    plan->algorithm = JoinAlgorithm::kSJ5;
  } else {
    plan->algorithm = JoinAlgorithm::kSJ4;
  }
  plan->spill = est.result_pairs >= options.spill_pair_floor;
  plan->spill_budget_chunks = options.spill_budget_chunks;
  plan->prefetch = est.page_reads >= options.prefetch_page_read_floor;
}

// Refinement pricing, in units of one exact segment test between two
// 2-vertex chains — the cheapest candidate the exact tier can meet.
// Calibrated with bench_refinement (min-of-3 timings) on a 4-core x86-64
// box: such a test costs ~40 ns; signature construction ~50 ns per
// covered cell (2-vertex chains of test E, the least per-cell overhead);
// the merge-scan ~4 ns per covered cell of the two signatures (1-2 cell
// signatures, the most per cell: longer ones early-out on a TRUE-HIT).
constexpr double kSignatureCellCost = 1.25;
constexpr double kMergeScanCellCost = 0.1;

// Share of a straight chain of extent `extent` that lies in cells it
// crosses from edge to edge along that axis: all but about one cell.
double FullyCrossedShare(double extent, double cell) {
  return extent > cell ? 1.0 - cell / extent : 0.0;
}

// Prices both refinement tiers on the estimate and picks the cheaper one.
// Each object is priced as one straight segment spanning its leaf-level
// mean extent (the cheapest chain): its supercover crosses about
// (w + h) / cell cells beyond the one it starts in, on a grid spanning
// the shared data space. A TRUE-HIT needs a shared cell that one chain
// crosses left to right and the other bottom to top, so a candidate is
// proven with about the product of the two fully-crossed shares (best
// orientation); every other candidate is charged its exact test on top
// of the merge-scan. REJECTs are not priced: the tier must win without
// them.
void PriceRefinement(const PlannerOptions& options, PlanChoice* plan) {
  const JoinCostEstimate& est = plan->estimate;
  const double cells_per_axis = std::ldexp(
      1.0, static_cast<int>(std::clamp(options.raster_grid_bits, 1u,
                                       RasterGrid::kMaxBits)));
  const double cell_w = est.space_width / cells_per_axis;
  const double cell_h = est.space_height / cells_per_axis;
  const auto cells_per_object = [&](const LevelProfile& leaf) {
    return 1.0 + leaf.mean_width / cell_w + leaf.mean_height / cell_h;
  };
  const LevelProfile& r = est.r_leaf;
  const LevelProfile& s = est.s_leaf;
  const double proven = std::max(
      FullyCrossedShare(r.mean_width, cell_w) *
          FullyCrossedShare(s.mean_height, cell_h),
      FullyCrossedShare(r.mean_height, cell_h) *
          FullyCrossedShare(s.mean_width, cell_w));
  const double build =
      kSignatureCellCost *
      (static_cast<double>(r.entries) * cells_per_object(r) +
       static_cast<double>(s.entries) * cells_per_object(s));
  const double per_candidate =
      kMergeScanCellCost * (cells_per_object(r) + cells_per_object(s)) +
      (1.0 - proven);
  plan->raster_cost = build + per_candidate * est.result_pairs;
  plan->exact_cost = est.result_pairs;
  plan->refine_raster = plan->raster_cost < plan->exact_cost;
}

}  // namespace

PlanChoice PlanPairJoin(const RTree& r, const RTree& s,
                        const PlannerOptions& options) {
  return PlanPairJoin(r, s, options, /*exact_geometry=*/false);
}

PlanChoice PlanPairJoin(const RTree& r, const RTree& s,
                        const PlannerOptions& options, bool exact_geometry) {
  PlanChoice plan;
  plan.estimate = EstimateJoinCost(r, s);
  DecideFromEstimate(options, &plan);
  // Only an exact-geometry query has refinement to price; MBR-only plans
  // (every serving query) skip it.
  if (exact_geometry) PriceRefinement(options, &plan);
  plan.raster_grid_bits = options.raster_grid_bits;
  return plan;
}

PlanChoice PlanChainJoin(const std::vector<JoinRelation>& relations,
                         const PlannerOptions& options) {
  RSJ_CHECK_MSG(relations.size() >= 2, "chain plan needs >= 2 relations");
  PlanChoice plan;
  // Compose pairwise estimates along the chain: the estimator predicts
  // |R_k ⋈ R_{k+1}| for adjacent pairs; dividing by |R_k| gives expected
  // matches per probing object, which scales the running tuple count.
  double tuples = 0.0;
  for (size_t k = 0; k + 1 < relations.size(); ++k) {
    const JoinCostEstimate est =
        EstimateJoinCost(*relations[k].tree, *relations[k + 1].tree);
    plan.estimate.node_pairs += est.node_pairs;
    plan.estimate.page_reads += est.page_reads;
    plan.estimate.sj1_comparisons += est.sj1_comparisons;
    if (k == 0) {
      tuples = est.result_pairs;
    } else {
      const double probers =
          std::max<double>(1.0, relations[k].rects->size());
      tuples *= est.result_pairs / probers;
    }
  }
  plan.estimate.result_pairs = tuples;
  DecideFromEstimate(options, &plan);
  return plan;
}

void ApplyPlan(const PlanChoice& plan, JoinOptions* join,
               ParallelExecutorOptions* exec) {
  join->algorithm = plan.algorithm;
  exec->spill_results = plan.spill;
  exec->spill_budget_chunks = plan.spill_budget_chunks;
  exec->prefetch = plan.prefetch;
  join->refine_raster = plan.refine_raster;
  join->raster_grid_bits = plan.raster_grid_bits;
}

std::string PlanChoice::Describe() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "plan{algo=%s spill=%d budget=%zu prefetch=%d "
                "raster=%d raster_cost=%.1f exact_cost=%.1f bits=%u "
                "est{node_pairs=%.1f page_reads=%.1f sj1_cmp=%.1f "
                "result=%.1f}}",
                JoinAlgorithmName(algorithm), spill ? 1 : 0,
                spill_budget_chunks, prefetch ? 1 : 0, refine_raster ? 1 : 0,
                raster_cost, exact_cost, raster_grid_bits,
                estimate.node_pairs, estimate.page_reads,
                estimate.sj1_comparisons, estimate.result_pairs);
  return std::string(buf);
}

}  // namespace rsj
