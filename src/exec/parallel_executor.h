// Task-based parallel join executor — the successor of the seed's static
// root-level declustering (§6 future work).
//
// Execution pipeline:
//   1. the coordinator builds a depth-adaptive partition plan of at least
//      partition_multiplier × num_threads subtree-pair tasks
//      (exec/partition.h),
//   2. a work-stealing scheduler (exec/task_scheduler.h) runs the tasks on
//      per-worker contexts: each worker owns a SpatialJoinEngine, its own
//      Statistics and a batched ResultSink,
//   3. page requests go through one shared, sharded, thread-safe
//      SharedBufferPool (and, by default, one decoded-node cache over it),
//      which the coordinator's partitioning reads warm for the workers,
//   4. worker statistics and sink outputs are merged into the result.
//
// Work units are disjoint subtree pairs, so the union of the workers'
// outputs is exactly the sequential result, without deduplication.

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

class IoScheduler;
class TraceRecorder;

struct ParallelExecutorOptions {
  unsigned num_threads = 1;

  // Depth-adaptive declustering descends the synchronized traversal until
  // at least partition_multiplier × num_threads qualifying subtree pairs
  // exist (the "k" of the ISSUE).
  unsigned partition_multiplier = 8;

  // Shards of the SharedBufferPool all workers share (one pool of
  // options.buffer_bytes for the whole run).
  size_t pool_shards = 8;

  // Share one decoded-node cache (storage/node_cache.h) between the
  // coordinator and all workers, so directory nodes the partitioner
  // decodes are never re-decoded.
  bool node_cache = true;

  // Node budget of the shared decode cache (total across its shards).
  size_t node_cache_capacity = 4096;

  // Materialize the result pairs (otherwise only counts are kept).
  bool collect_pairs = false;

  // --- chunked result path (exec/result_sink.h) ---

  // Pairs per result chunk (and, for the multiway pipeline, tuples per
  // frontier chunk). Must be >= 1.
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
  // ParallelJoinResult::spilled) and to collect_tuples parallel chain
  // joins — pipelined or materialized, any arity
  // (ParallelChainJoinResult::spilled_tuples; only the sequential chain
  // fallback ignores it and collects unbounded). Ignored with a
  // caller-provided sink factory.
  bool spill_results = false;

  // Completed result chunks held resident before spilling starts (>= 1).
  size_t spill_budget_chunks = 64;

  // Page size of the spill file — the unit of spill writes and re-reads
  // on the simulated disk array.
  uint32_t spill_page_size = kPageSize4K;

  // --- multiway streaming pipeline (exec/multiway_executor.h) ---

  // true: probe phases consume the previous phase's chunks through
  // bounded channels as they are produced (no inter-phase barrier; peak
  // frontier memory capped at O(chunks in flight × chunk_capacity)).
  // false: the materialized formulation — every phase barriers on the
  // full frontier of its predecessor (the planner's choice for small
  // frontiers, below PlannerOptions::pipeline_tuple_floor).
  bool pipelined = true;

  // Chunks buffered per phase boundary before producers block
  // (backpressure). Must be >= 1.
  size_t channel_bound = 16;

  // --- simulated asynchronous I/O (src/io/) ---

  // When non-null, the shared pool services its misses in modeled
  // disk-array time through this scheduler. Not owned;
  // must outlive the run. Ignored by the num_threads <= 1 sequential
  // fallback (use RunSpatialJoinWithIo for a modeled sequential run).
  IoScheduler* io_scheduler = nullptr;

  // Schedule-driven prefetching: the coordinator hints the partition
  // plan's task frontier ahead, each worker prefetches its task's subtree
  // roots, and the engines stream their §4.3 read schedules into the
  // prefetcher. Effective with or without io_scheduler (without one,
  // prefetch is zero-latency accounting only).
  bool prefetch = false;

  // Maximal async reads issued per schedule handoff.
  size_t prefetch_ahead = 32;

  // --- serving-engine seams (src/engine/) ---

  // External task execution: worker `w` of `workers` runs tasks handed to
  // `fn`, and the runner returns per-worker executed-task counts (the
  // TaskScheduler::Run contract). When set, the executor's subtree-pair
  // tasks run through this instead of a run-private TaskScheduler — the
  // engine's SessionTaskPool multiplexes many sessions' tasks over one
  // oversubscribed thread set this way. The runner must guarantee worker
  // slot exclusivity: at most one live call of `fn` per worker index at a
  // time (worker contexts are single-owner).
  using TaskRunner = std::function<std::vector<uint64_t>(
      unsigned workers, size_t num_tasks,
      const std::function<void(unsigned worker, size_t task)>& fn)>;
  TaskRunner task_runner;

  // Run-wide memory ledger (engine/memory_governor.h): spill budgets and
  // materialized-result gauges mirror their resident chunks into it as
  // byte leases while the run holds them. Not owned; nullptr = standalone
  // accounting only.
  MemoryGovernor* memory_governor = nullptr;

  // false: the io_scheduler is BORROWED from an enclosing engine serving
  // concurrent runs — the executor must not Drain() or
  // SynchronizeClocks() (that would fold every other session's clocks);
  // instead it retires its own workers' actor clocks on completion and
  // reports modeled_elapsed_micros as its retired peak minus the floor at
  // entry. true (default): the executor owns the scheduler's lifecycle
  // for the run, as before. Ignored without an io_scheduler.
  bool own_io_lifecycle = true;

  // --- observability (src/obs/) ---

  // Span sink (obs/trace.h) for partition/task/phase/sink-flush/spill
  // spans; nullptr = no tracing. Not owned; must outlive the run.
  TraceRecorder* tracer = nullptr;

  // Trace process id the run's spans are tagged with — the serving
  // engine assigns one pid per query session so each query gets its own
  // track; 0 = the shared engine/run track.
  uint32_t trace_pid = 0;
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
  // Tasks each worker executed (work stealing balances these).
  std::vector<uint64_t> worker_task_counts;
  // Subtree-pair tasks the partitioner generated.
  size_t task_count = 0;
  // Directory levels the partitioner descended below the roots.
  int partition_depth = 0;
  bool used_node_cache = false;
  // Advance of the modeled I/O clock across the run (0 without a
  // scheduler): the join's modeled elapsed time over the disk array.
  // Under a borrowed scheduler (own_io_lifecycle == false, or a sink
  // factory) this is the run's own retired-actor peak minus the
  // scheduler floor at entry — concurrent sessions' clocks never bleed
  // into it.
  uint64_t modeled_elapsed_micros = 0;
};

class SharedBufferPool;
class NodeCache;

// Runs R ⋈ S under `exec_options`. Falls back to a single sequential
// partition when a root is a leaf or num_threads <= 1.
ParallelJoinResult RunParallelSpatialJoin(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options);

// Core of RunParallelSpatialJoin, reusable by the multi-way chain executor
// (exec/multiway_executor.h): non-null `shared_pool` / `node_cache` are
// used instead of executor-private instances, so one buffer and one decode
// cache can span several join phases. `node_cache`, when given, must be
// layered over `shared_pool`, and the pool's page size must match the
// trees'.
ParallelJoinResult RunParallelSpatialJoinWith(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, SharedBufferPool* shared_pool,
    NodeCache* node_cache);

// Supplies worker `w`'s output sink; the sink is caller-owned and must
// outlive the run. Used by streaming consumers (the multiway pipeline)
// whose sinks push chunks into a downstream stage while the join runs.
using SinkFactory = std::function<ResultSink*(unsigned worker)>;

// Like RunParallelSpatialJoinWith, but results stream into caller-provided
// sinks (collect_pairs is ignored; every sink is flushed before return and
// pair_count sums the sinks' counts). The executor does NOT drain or
// synchronize exec_options.io_scheduler in this form — the caller owns the
// I/O lifecycle of the enclosing pipeline. The run still retires its own
// workers' actor clocks and reports modeled_elapsed_micros as this
// stage's retired peak minus the scheduler floor at entry.
ParallelJoinResult RunParallelSpatialJoinInto(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, SharedBufferPool* shared_pool,
    NodeCache* node_cache, const SinkFactory& sink_factory);

}  // namespace rsj

#endif  // RSJ_EXEC_PARALLEL_EXECUTOR_H_
