// Parallel multi-way chain join on the execution subsystem.
//
// The chain R0 ⋈ R1 ⋈ ... ⋈ Rn-1 runs as ONE pairwise run:
//
//   1. relations 0 ⋈ 1 run on the partitioned pairwise executor
//      (exec/parallel_executor.h) — depth-adaptive plan, the context's
//      task runner — with one chain sink per worker,
//   2. each sink stages chunk_capacity pairs, then extends every staged
//      pair depth-first through the probe phases 2..n-1 with
//      ProbeChainWindow, on the worker's own thread and charged to the
//      worker's Statistics (its actor clock). No phase waits for another
//      and no thread beyond the task runner's is started; a worker's live
//      frontier is one staged chunk plus one probe's matches per phase,
//      whatever the size of the whole frontier, which
//      `Statistics::frontier_peak_tuples` reports per run,
//   3. final tuples are counted, collected, or spilled through the
//      worker's TupleSpiller (exec/spill_sink.h); the sink's Flush()
//      extends the last partial chunk and seals the spiller before the
//      pairwise run retires the worker,
//   4. the run's ExecContext (exec/exec_context.h) — one SharedBufferPool,
//      one NodeCache and one modeled-I/O window — serves the pairwise
//      traversal and every probe; with prefetch enabled the coordinator
//      hints every probe root's children into the shared pool up front.
//
// This is the paper's §2.1 remark taken literally: the multi-way join
// reuses the pairwise join's machinery, and the same thread team and
// tasks. Tuples are disjoint work units and every frontier tuple is
// probed exactly once, so the union of the workers' outputs is the
// sequential chain result as a multiset (the order differs run to run).

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
  // The bounded-memory tuple set: final tuple chunks past the resident
  // budget are serialized to the spill file through the timed write path
  // and streamed back on demand (exec/spill_sink.h). Filled whenever
  // exec_options.spill_results applies to a parallel run (collect_tuples,
  // num_threads > 1), 2-relation chains included; only the sequential
  // fallback ignores spill_results and collects into `tuples` unbounded
  // (its whole output is still reported via result_peak_chunks_resident).
  SpilledTupleSet spilled_tuples;
  // Aggregated counters (coordinators + all workers, all phases).
  // total_stats.frontier_peak_tuples is the run's peak live intermediate
  // tuple count: the staged pairs plus the open probes' matches, summed
  // over the workers (the whole largest frontier on the sequential
  // fallback).
  Statistics total_stats;
  // Per-worker counters, one entry per pairwise worker: its share of the
  // pairwise traversal plus every probe it ran.
  std::vector<Statistics> worker_stats;

  // --- executor telemetry ---
  // Subtree-pair tasks of the pairwise phase and its descent depth.
  size_t pairwise_task_count = 0;
  int partition_depth = 0;
  // The whole chain's modeled elapsed time (0 without a scheduler), set
  // from the close of the run's modeled-I/O window.
  uint64_t modeled_elapsed_micros = 0;
};

// Runs the chain join over `relations` (>= 2, one shared page size) with
// `exec_options.num_threads` workers, on a standalone context
// (exec/exec_context.h) built from `exec_options`, and closes its
// modeled-I/O window. Falls back to the sequential RunChainSpatialJoin
// when num_threads <= 1 — that path runs over a private buffer and its own
// decode cache, and reads no modeled time. The tuple multiset is identical
// to RunChainSpatialJoin's for every configuration.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples = false);

// The same run on `ctx`'s resources (a serving engine's session): its
// tasks and probes run on the context's task runner, and one pool, cache
// and window span every phase. The run retires its actors into
// ctx.window() but leaves it open: the caller closes it and sets
// modeled_elapsed_micros.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    bool collect_tuples);

}  // namespace rsj

#endif  // RSJ_EXEC_MULTIWAY_EXECUTOR_H_
