// The multi-way chain join on the execution subsystem, at every thread
// count.
//
// The chain R0 ⋈ R1 ⋈ ... ⋈ Rn-1 runs as ONE pairwise run:
//
//   1. relations 0 ⋈ 1 run on the partitioned pairwise executor
//      (exec/parallel_executor.h) — depth-adaptive plan, the context's
//      task pool — with one chain sink per worker,
//   2. each sink stages chunk_capacity pairs, then extends the staged
//      chunk through the probe phases 2..n-1 in batches, on the worker's
//      own thread and charged to the worker's Statistics (its actor
//      clock): one ChainProbe (join/multiway_join.h) answers a whole
//      batch of windows in one descent of the phase's R*-tree. The last
//      phase emits each final tuple as the probe finds it; an
//      intermediate phase (chains of 4 or more relations) stages the
//      tuples it extends for the next phase, which probes that stage
//      whenever it holds chunk_capacity tuples and once more when the
//      chunk is done. No phase waits for another worker and no thread
//      beyond the task pool's is started; a worker's live frontier is
//      at most (n - 2) × chunk_capacity tuples, whatever the size of the
//      whole frontier or of one window's matches, which
//      `Statistics::frontier_peak_tuples` reports per run,
//   3. final tuples are counted, collected, or spilled through the
//      worker's TupleSpiller (exec/spill_sink.h); the sink's Flush()
//      extends the last partial chunk and seals the spiller before the
//      pairwise run retires the worker,
//   4. the run's ExecContext (exec/exec_context.h) — one BufferPool,
//      whose resident pages carry their decodes, and one modeled-I/O
//      window — serves the pairwise traversal and every probe; with
//      prefetch enabled the coordinator hints every probe root's children
//      into the shared pool up front.
//
// This is the paper's §2.1 remark taken literally: the multi-way join
// reuses the pairwise join's machinery, and the same thread team and
// tasks. It is the only chain path: at one thread the same sinks run one
// partition over one LRU of buffer_bytes, and RunChainSpatialJoin is that
// run. Tuples are disjoint work units and every frontier tuple is probed
// exactly once per phase, so the tuple multiset and `window_queries` are
// the same at every thread count (the order differs run to run).

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
  // is the same at every thread count; the order is scheduling-dependent.
  // Empty when spill_results applied (see spilled_tuples below) — the
  // collected tuples then land in `spilled_tuples` instead.
  std::vector<std::vector<uint32_t>> tuples;
  // The bounded-memory tuple set: final tuple chunks past the resident
  // budget are serialized to the spill file through the timed write path
  // and streamed back on demand (exec/spill_sink.h). Filled whenever
  // exec_options.spill_results applies (collect_tuples), at every thread
  // count and arity, 2-relation chains included.
  SpilledTupleSet spilled_tuples;
  // Aggregated counters (coordinators + all workers, all phases).
  // total_stats.frontier_peak_tuples is the run's peak live intermediate
  // tuple count: the staged pairwise chunks and intermediate stages being
  // probed, summed over the workers.
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
// modeled-I/O window. One thread (or fewer) runs one partition over one
// LRU of buffer_bytes and, like every other thread count, honours
// spill_results, io_scheduler and prefetch.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples = false);

// The same run on `ctx`'s resources (a serving engine's session): its
// tasks and probes run on the context's task pool, and one pool and
// window span every phase. The run retires its actors into ctx.window()
// but leaves it open: the caller closes it and sets
// modeled_elapsed_micros.
ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    bool collect_tuples);

struct MultiwayJoinResult {
  uint64_t tuple_count = 0;
  // Tuples of object ids, one per relation, when collected.
  std::vector<std::vector<uint32_t>> tuples;
  Statistics stats;
};

// The one-thread chain join: RunParallelChainSpatialJoin with default
// ParallelExecutorOptions (one partition over one LRU of
// options.buffer_bytes, 1,024 pairs per staged chunk, no modeled I/O),
// reporting its tuple count, collected tuples and total_stats.
MultiwayJoinResult RunChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    bool collect_tuples = false);

}  // namespace rsj

#endif  // RSJ_EXEC_MULTIWAY_EXECUTOR_H_
