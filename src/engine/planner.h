// Cost-based plan selection for the serving engine.
//
// The paper measures the SJ1..SJ5 ladder and reports crossovers: the
// sorting/sweep setup of SJ3+ only pays off once enough rectangle
// comparisons are saved, and the z-order schedule of SJ5 only once enough
// page reads exist for schedule locality to matter (§5, Table 4). The
// planner turns the analytic estimator (join/cost_estimator.h) into those
// decisions per query, so a serving engine mixing tiny and huge joins
// does not run one hard-coded variant for all of them.
//
// Decisions, each on one estimator output against one tunable threshold
// (thresholds are options precisely so tests and benches can place one
// workload on each side of every boundary) — except `refine`, which
// compares two priced costs. Every decision is one the executors run;
// declustered execution (src/shard/) is an explicit executor a caller
// picks, not a planner output.
//
//   * variant   — expected SJ1 comparison count below
//                 `sj1_comparison_ceiling` keeps plain nested loops (kSJ1:
//                 no sort, no sweep state); above it, restriction + sweep
//                 + pinning (kSJ4); expected page reads past
//                 `zorder_page_read_floor` additionally switch the read
//                 schedule to local z-order (kSJ5).
//   * spilling  — estimated result cardinality past `spill_pair_floor`
//                 collects through spilling sinks with
//                 `spill_budget_chunks` resident chunks; below it,
//                 results materialize unbounded (cheaper, no spill file).
//   * prefetch  — estimated page reads past `prefetch_page_read_floor`
//                 enable schedule-driven prefetching at the prefetcher's
//                 default depth; tiny joins skip the hint traffic.
//   * refine    — when the query asks for exact geometry, the planner
//                 prices both refinement tiers and turns on the
//                 raster-interval tier (geom/raster_interval.h) only when
//                 it is the cheaper one. Raster cost: building signatures
//                 over the estimated covered cells of both sides (about
//                 1 + (w + h) / cell per object, from the leaf-level mean
//                 extents at `raster_grid_bits`), plus per estimated
//                 candidate a merge-scan over both signatures' cells and,
//                 unless the pair is provable, its exact test. A TRUE-HIT
//                 needs a cell one chain crosses left to right and the
//                 other bottom to top, so objects narrower than a cell
//                 are never provable. Exact cost: one segment test per
//                 estimated candidate. The trees hold no vertex counts,
//                 so every object is priced as the cheapest chain, one
//                 straight segment; the raster tier must win even
//                 against that. With the calibrated constants it never
//                 does: per candidate, the merge-scan plus the unproven
//                 exact tests cost at least 1.2 segment tests at any
//                 extent, before the build. Measured, signatures built
//                 once per query: the tier lost on test E (~50x),
//                 on dense sub-cell objects at 3 bits (~1.6x, nothing
//                 provable), on crossing axis-parallel segments at 6 bits
//                 (~2.5x, 84% proven), and on two sets of 3000 random-walk
//                 chains at 2-64 vertices (10 and 14 bits) and 256
//                 vertices on 14 bits. It won (~2x) only at 256 vertices
//                 on 10 bits, which the one-segment price cannot see.
//
// PlanChoice::Describe() serializes the choice AND the estimator inputs
// that produced it — the engine stores it per session, so every decision
// is auditable after the fact.

#ifndef RSJ_ENGINE_PLANNER_H_
#define RSJ_ENGINE_PLANNER_H_

#include <string>
#include <vector>

#include "exec/parallel_executor.h"
#include "join/cost_estimator.h"
#include "join/multiway_join.h"

namespace rsj {

struct PlannerOptions {
  // Expected SJ1 comparisons at or below which plain nested loops win.
  double sj1_comparison_ceiling = 50000;
  // Expected page reads at or above which SJ5's z-order schedule replaces
  // SJ4's sweep-order schedule.
  double zorder_page_read_floor = 20000;
  // Estimated result pairs (or chain tuples) at or above which results
  // collect through spilling sinks.
  double spill_pair_floor = 500000;
  // Resident-chunk budget handed to the spill path when it is chosen.
  size_t spill_budget_chunks = 64;
  // Expected page reads at or above which prefetching is enabled.
  double prefetch_page_read_floor = 2000;
  // Grid resolution the raster tier is priced at and handed when chosen.
  unsigned raster_grid_bits = 14;
};

struct PlanChoice {
  JoinAlgorithm algorithm = JoinAlgorithm::kSJ4;
  bool spill = false;
  size_t spill_budget_chunks = 64;
  bool prefetch = false;
  // Two-tier refinement (only set when planning an exact-geometry query).
  bool refine_raster = false;
  unsigned raster_grid_bits = 14;
  // The priced refinement costs that decision compared, in units of one
  // exact segment test (both 0 for MBR-only plans).
  double raster_cost = 0.0;
  double exact_cost = 0.0;

  // The estimator inputs the decisions were made on. For chains:
  // node_pairs/page_reads/sj1_comparisons sum the per-phase pairwise
  // estimates and result_pairs is the estimated FINAL tuple count.
  JoinCostEstimate estimate;

  // One-line audit record: the choice plus the estimates behind it.
  std::string Describe() const;
};

// Plans a pairwise join R ⋈ S. `exact_geometry` marks a query whose
// candidates will be refined on the exact chains (join/refinement.h);
// only those queries can earn the raster tier. The two-argument form
// plans an MBR-only join.
PlanChoice PlanPairJoin(const RTree& r, const RTree& s,
                        const PlannerOptions& options);
PlanChoice PlanPairJoin(const RTree& r, const RTree& s,
                        const PlannerOptions& options, bool exact_geometry);

// Plans a chain join (relations.size() >= 2). Intermediate cardinalities
// compose the pairwise estimates: the estimated tuple count after phase k
// scales the next phase's estimated matches per probing object.
PlanChoice PlanChainJoin(const std::vector<JoinRelation>& relations,
                         const PlannerOptions& options);

// Writes a plan into the option structs the executors consume. Leaves
// every field the planner does not decide (threads, pools, buffers, I/O)
// untouched.
void ApplyPlan(const PlanChoice& plan, JoinOptions* join,
               ParallelExecutorOptions* exec);

}  // namespace rsj

#endif  // RSJ_ENGINE_PLANNER_H_
