// Task-based parallel join executor — the successor of the seed's static
// root-level declustering (§6 future work).
//
// Execution pipeline:
//   1. the coordinator builds a depth-adaptive partition plan of at least
//      partition_multiplier × num_threads subtree-pair tasks
//      (exec/partition.h),
//   2. the context's TaskPool (exec/task_pool.h) deals the tasks to the
//      workers in contiguous blocks, idle workers stealing from the back
//      of the largest, and runs them on per-worker state: each worker owns
//      a SpatialJoinEngine, its own Statistics and a batched ResultSink,
//   3. page requests go through the context's BufferPool
//      (exec/exec_context.h), whose pages the coordinator's partitioning
//      reads and takes over warm for the workers,
//   4. worker statistics and sink outputs are merged into the result.
//
// Work units are disjoint subtree pairs, so the union of the workers'
// outputs is exactly the sequential result, without deduplication. A leaf
// root (a degenerate plan) and num_threads <= 1 run as one partition over
// the context's pool; a one-thread context builds one LRU of
// buffer_bytes, so that run is the paper's sequential join, and
// RunSpatialJoin, RunSpatialJoinWithIo and RunIdSpatialJoin
// (join/join_runner.h, join/refinement.h) are that run. Both shapes read
// through the context's scheduler and write through the same sinks.

#ifndef RSJ_EXEC_PARALLEL_EXECUTOR_H_
#define RSJ_EXEC_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "exec/result_sink.h"
#include "exec/spill_sink.h"
#include "join/join_options.h"
#include "rtree/rtree.h"
#include "storage/statistics.h"

namespace rsj {

class ExecContext;
class IoScheduler;
class TraceRecorder;

struct ParallelExecutorOptions {
  unsigned num_threads = 1;

  // Depth-adaptive declustering descends the synchronized traversal until
  // at least partition_multiplier × num_threads qualifying subtree pairs
  // exist (the "k" of the ISSUE).
  unsigned partition_multiplier = 8;

  // Materialize the result pairs (otherwise only counts are kept).
  bool collect_pairs = false;

  // --- chunked result path (exec/result_sink.h) ---

  // Pairs per result chunk (and, for a chain join, pairs each worker
  // stages before extending them, and tuples per final tuple chunk).
  // Must be >= 1.
  size_t chunk_capacity = 1024;

  // Optional external chunk arena: pass one to recycle chunk blocks
  // across runs (steady-state runs then allocate nothing). nullptr: the
  // executor uses a private arena whose blocks the returned chunk list
  // keeps alive.
  ChunkArena* chunk_arena = nullptr;

  // --- spill-to-disk result path (exec/spill_sink.h) ---

  // Spill collected results to a result file once more than
  // spill_budget_chunks completed chunks are resident across all worker
  // sinks: the overflow chunks serialize through the timed write path
  // (costed on io_scheduler when one is attached) and their blocks
  // recycle into the arena, so peak result memory is
  // O(spill_budget_chunks × chunk_capacity) independent of the result
  // size. Applies to collect_pairs pairwise runs (result lands in
  // ParallelJoinResult::spilled) and to collect_tuples chain joins of any
  // arity and thread count (ParallelChainJoinResult::spilled_tuples).
  // Ignored with a caller-provided sink factory. The spill file has 4 KiB
  // pages.
  bool spill_results = false;

  // Completed result chunks held resident before spilling starts (>= 1).
  size_t spill_budget_chunks = 64;

  // --- simulated asynchronous I/O (src/io/) ---

  // Schedule-driven prefetching, issuing at most this many async reads
  // per handoff (io/prefetcher.h); 0 = off. The coordinator hints the
  // partition plan's task frontier ahead, each worker prefetches its
  // task's subtree roots, and the engines stream their §4.3 read
  // schedules into the prefetcher. Effective with or without a scheduler
  // (without one, prefetch is zero-latency accounting only).
  size_t prefetch_ahead = 0;

  // --- resources the run borrows (exec/exec_context.h) ---
  // Every run's context reads these (and chunk_arena above); a serving
  // engine sets them to its own for each session.

  // When non-null, the run's pool services its misses, and the spill
  // path its writes, in modeled disk-array time through this scheduler,
  // and the run owns its modeled-I/O window: it synchronizes the
  // scheduler's clocks when it ends. Not owned; must outlive the run
  // (and any spilled result re-read through it).
  IoScheduler* io_scheduler = nullptr;

  // Run-wide memory ledger (engine/memory_governor.h): spill budgets and
  // materialized-result gauges mirror their resident chunks into it as
  // byte leases while the run holds them. Not owned; nullptr = standalone
  // accounting only.
  MemoryGovernor* memory_governor = nullptr;

  // Span sink (obs/trace.h) for partition/task/phase/sink-flush/spill
  // spans; nullptr = no tracing. Not owned; must outlive the run.
  TraceRecorder* tracer = nullptr;
};

struct ParallelJoinResult {
  uint64_t pair_count = 0;
  // When collected: the merged result, assembled by splicing the workers'
  // chunk lists — pointer moves only, zero pair copies after the worker
  // that produced a pair wrote it. Empty when spill_results was set —
  // the result then lands in `spilled` instead.
  ResultChunkList chunks;
  // When collected with spill_results: the bounded-memory form (resident
  // chunks + spilled block refs + the shared spill file). Iterate with
  // SpilledResultReader; CopyPairs() exists for API edges.
  SpilledResult spilled;
  // Aggregated counters (coordinator + all workers).
  Statistics total_stats;
  // Per-worker counters, for skew analysis.
  std::vector<Statistics> worker_stats;

  // --- executor telemetry ---
  // Tasks each worker executed: its block of the plan, give or take what
  // idle workers stole from the back of the largest blocks.
  std::vector<uint64_t> worker_task_counts;
  // Subtree-pair tasks the partitioner generated.
  size_t task_count = 0;
  // Directory levels the partitioner descended below the roots.
  int partition_depth = 0;
  // The run's modeled elapsed time over the disk array (0 without a
  // scheduler), set from the close of the run's modeled-I/O window
  // (exec/exec_context.h). On a serving engine's scheduler it is the
  // session's own retired-actor peak minus the floor at entry, so
  // concurrent sessions' clocks never bleed into it.
  uint64_t modeled_elapsed_micros = 0;
};

// Runs R ⋈ S on a context (exec/exec_context.h) built from
// `exec_options` with nothing lent, and closes its modeled-I/O window.
ParallelJoinResult RunParallelSpatialJoin(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options);

// Supplies worker `w`'s output sink; the sink is caller-owned and must
// outlive the run. `stats` is the worker's Statistics, its actor clock: a
// sink that does work of its own charges it there. It dies when the run
// returns, so the sink must be done with it by the end of its Flush().
// Used by consumers that process pairs as the join runs: the chain join
// extends them through its probe phases, the sharded join deduplicates
// them.
using SinkFactory =
    std::function<ResultSink*(unsigned worker, Statistics* stats)>;

// Runs R ⋈ S on `ctx`'s resources: one run, or the pairwise phase of a
// chain on the chain's context. The trees' page size must be the pool's.
// With `sinks`, results stream into the caller's per-worker sinks
// (collect_pairs and spill_results are ignored; every sink is flushed
// before its worker retires, and pair_count sums the pairs the run
// added). The run retires its actors into ctx.window() but leaves the
// window open: the caller closes it and sets modeled_elapsed_micros.
ParallelJoinResult RunParallelSpatialJoin(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    const SinkFactory& sinks = nullptr);

}  // namespace rsj

#endif  // RSJ_EXEC_PARALLEL_EXECUTOR_H_
