// Parallel multi-way chain join on the execution subsystem.
//
// PR 2 parallelized the chain join but materialized the entire tuple
// frontier between probe phases, so peak memory scaled with the largest
// intermediate result. The default formulation here is a streaming
// pipeline instead:
//
//   1. phase 1 (relations 0 ⋈ 1) runs the partitioned pairwise executor —
//      depth-adaptive plan, work-stealing scheduler — with every worker's
//      sink converting completed pair batches into FrontierChunks that are
//      pushed straight into the first probe phase's bounded channel,
//   2. every probe phase k has a dedicated worker team popping chunks from
//      its input channel as they arrive, probing with ProbeChainWindow,
//      and pushing its own completed chunks into phase k+1's channel —
//      per-chunk handoff, no inter-phase barrier; the channel bound gives
//      backpressure, so peak frontier memory is capped at
//      O(chunks-in-flight × chunk_capacity) instead of O(|frontier|),
//      which `Statistics::frontier_peak_tuples` proves per run,
//   3. the run's ExecContext (exec/exec_context.h) — one SharedBufferPool,
//      one NodeCache and one modeled-I/O window — spans all phases and
//      workers; with prefetch enabled the coordinator hints every probe
//      root's children into the shared pool upfront,
//   4. per-worker Statistics and outputs are merged exactly like
//      RunParallelSpatialJoin's.
//
// `exec_options.pipelined = false` selects the materialized formulation
// (whole-frontier barrier between phases, no channel machinery), which the
// planner picks for chains whose estimated frontier stays below
// PlannerOptions::pipeline_tuple_floor. bench_multiway_scaling asserts the
// pipeline's peak frontier is strictly below the materialized one on
// identical results.
//
// Tuples are disjoint work units and every tuple is probed exactly once,
// so the union of the workers' outputs is the sequential chain result as
// a multiset (the concatenation order differs run to run).

#ifndef RSJ_EXEC_MULTIWAY_EXECUTOR_H_
#define RSJ_EXEC_MULTIWAY_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "exec/parallel_executor.h"
#include "join/multiway_join.h"

namespace rsj {

struct ParallelChainJoinResult {
  uint64_t tuple_count = 0;
  // Tuples of object ids, one per relation, when collected. The multiset
  // equals the sequential result; the order is scheduling-dependent.
  // Empty when spill_results applied (see spilled_tuples below) — the
  // collected tuples then land in `spilled_tuples` instead.
  std::vector<std::vector<uint32_t>> tuples;
  // The bounded-memory tuple set: final-phase tuple chunks past the
  // resident budget are serialized to the spill file through the timed
  // write path and streamed back on demand (exec/spill_sink.h). Filled
  // whenever exec_options.spill_results applies to a parallel run
  // (collect_tuples, num_threads > 1) — pipelined or materialized,
  // including 2-relation chains; only the sequential fallback ignores
  // spill_results and collects into `tuples` unbounded (its whole output
  // is still reported via result_peak_chunks_resident).
  SpilledTupleSet spilled_tuples;
  // Aggregated counters (coordinator + all workers, all phases).
  // total_stats.frontier_peak_tuples is the run's peak live intermediate
  // tuple count: whole frontiers when materialized, chunks in flight when
  // pipelined.
  Statistics total_stats;
  // Per-worker counters, merged across phases (index = worker slot).
  std::vector<Statistics> worker_stats;

  // --- executor telemetry ---
  // Subtree-pair tasks of the pairwise phase and its descent depth.
  size_t pairwise_task_count = 0;
  int partition_depth = 0;
  // Frontier chunks per probe phase (one entry per phase >= 2): chunks
  // pushed through the phase's channel when pipelined, chunks scheduled
  // when materialized.
  std::vector<size_t> probe_chunk_counts;
  // Probe chunks each worker slot executed, summed over all probe phases
  // (work stealing / channel scheduling balances these).
  std::vector<uint64_t> worker_probe_chunks;
  bool used_pipeline = false;
  // The whole chain's modeled elapsed time (0 without a scheduler), set
  // from the close of the run's modeled-I/O window.
  uint64_t modeled_elapsed_micros = 0;
};

// Runs the chain join over `relations` (>= 2, one shared page size) with
// `exec_options.num_threads` workers per stage, on a standalone context
// (exec/exec_context.h) built from `exec_options`, and closes its
// modeled-I/O window. Falls back to the sequential RunChainSpatialJoin
// when num_threads <= 1 — that path runs over a private buffer and its own
// decode cache, and reads no modeled time. The tuple multiset is identical
// to RunChainSpatialJoin's for every configuration.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples = false);

// The same run on `ctx`'s resources (a serving engine's session). The
// pairwise phase runs on the same context, so one pool, cache and window
// span every phase. The run retires its actors into ctx.window() but
// leaves it open: the caller closes it and sets modeled_elapsed_micros.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    bool collect_tuples);

}  // namespace rsj

#endif  // RSJ_EXEC_MULTIWAY_EXECUTOR_H_
