// The execution context of one executor run: the one owner of the
// resources the run reads through, and the only code that opens and
// closes the run's modeled-I/O window.
//
// A run of the parallel executors (exec/parallel_executor.h,
// exec/multiway_executor.h) shares across its phases and workers:
//   * one BufferPool, whose resident pages keep their take-over, so
//     directory pages the coordinator took over are not charged a decode
//     or a sort again while they stay resident,
//   * a Prefetcher over the pool, when the plan prefetches,
//   * the IoScheduler that models the pool's misses and the spill writes,
//   * the MemoryGovernor that result, spill and frontier budgets mirror
//     into,
//   * the ChunkArena result chunks recycle through,
//   * the TaskPool (exec/task_pool.h) that runs the run's tasks,
//   * the tracer, and the trace pid the run's spans carry.
//
// Every run the library makes is set up here, by one constructor. The
// scheduler, governor, tracer and arena come from the caller's
// ParallelExecutorOptions. A caller lends only what it shares with other
// runs (LentResources); the context builds the rest: the prefetcher, and
// the pool and task pool unless they are lent. A built pool is one LRU of
// buffer_bytes for a one-thread run — the paper's sequential join, which
// RunSpatialJoin[WithIo], RunIdSpatialJoin and RunChainSpatialJoin are —
// and kSharedPoolShards locked shards when workers share a budget that
// gives every shard several frames (one LRU when it does not). A serving
// engine (engine/query_engine.h) lends each session its pool and task
// pool; a sharded run (shard/sharded_join.h) lends every shard's context
// one task pool, and each shard builds its own pool. A chain runs its
// probes inside its pairwise workers, so one pool and window span every
// phase.
//
// The executors never close the window themselves: whoever built the
// context closes it once, after the run, and reads the run's modeled
// elapsed time from the close.

#ifndef RSJ_EXEC_EXEC_CONTEXT_H_
#define RSJ_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <memory>

#include "exec/result_sink.h"
#include "exec/task_pool.h"
#include "io/prefetcher.h"
#include "join/join_options.h"
#include "storage/buffer_pool.h"
#include "storage/statistics.h"

namespace rsj {

class IoScheduler;
class MemoryGovernor;
class TraceRecorder;
struct ParallelExecutorOptions;

// The modeled-I/O window of one run on `io` (nullptr: no modeled I/O, every
// call is a no-op and the elapsed time is 0). It records the clock and the
// floor when it opens, and closes once:
//   * OWNED (the run is the scheduler's only user): Close reports
//     SynchronizeClocks() minus the clock at open;
//   * BORROWED (concurrent sessions share the scheduler, so the run must
//     not fold their clocks): every actor the run used is retired, and
//     Close reports the largest retired clock minus the floor at open.
//     The engine synchronizes the clocks once per batch.
// Actors are the workers' Statistics (io/io_scheduler.h).
class IoWindow {
 public:
  IoWindow(IoScheduler* io, bool owned);

  IoWindow(const IoWindow&) = delete;
  IoWindow& operator=(const IoWindow&) = delete;

  // The run is done with `actor`, whose Statistics is about to die:
  // retires its clock, so a later run reusing the address starts fresh,
  // and notes where it ended. Every timed write of the actor must be on
  // its clock by now.
  void Retire(const Statistics* actor);

  // Closes the window and returns the run's modeled elapsed micros.
  // Borrowed: the run has retired every actor it used.
  uint64_t Close();

 private:
  IoScheduler* const io_;
  const bool owned_;
  const uint64_t clock_at_open_;
  const uint64_t floor_at_open_;
  uint64_t retired_end_;  // the largest retired clock, at least the floor
};

// What a caller lends a run's context because other runs share it; a null
// member is built by the context. Nothing lent is owned, and everything
// lent outlives the context.
struct LentResources {
  // A pool over the trees' page size that already reads through the
  // run's io_scheduler. Concurrent runs share its scheduler, so a context
  // on a lent pool closes its window BORROWED (IoWindow); on its own pool
  // the run is the scheduler's only user and the window is OWNED.
  BufferPool* pool = nullptr;
  TaskPool* tasks = nullptr;
  // The pid the run's spans carry.
  uint32_t trace_pid = 0;
};

class ExecContext {
 public:
  // A context for one run over trees of `page_size`. exec's io_scheduler,
  // memory_governor, tracer and chunk_arena (a private arena when null)
  // are borrowed. Unless lent: the pool is join.buffer_bytes over
  // `page_size`, with kSharedPoolShards shards when exec.num_threads > 1
  // and every shard gets 8 frames at least, else one LRU, reading through
  // exec.io_scheduler; the
  // task pool has exec.num_threads - 1 threads (none at one thread),
  // beside the calling thread that drives each run. With
  // exec.prefetch_ahead > 0 the context owns a prefetcher over the pool
  // that reaches that far ahead, but below the pool's frame count.
  ExecContext(const JoinOptions& join, uint32_t page_size,
              const ParallelExecutorOptions& exec,
              const LentResources& lent = {});

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  BufferPool* pool() const { return pool_; }
  // nullptr unless the run prefetches.
  Prefetcher* prefetcher() const { return prefetcher_.get(); }
  IoScheduler* io() const { return io_; }
  MemoryGovernor* governor() const { return governor_; }
  const ChunkArena& arena() const { return arena_; }
  TraceRecorder* tracer() const { return tracer_; }
  uint32_t trace_pid() const { return trace_pid_; }
  IoWindow& window() { return window_; }
  // The run's tasks run here; the calling thread drives each Run.
  TaskPool& tasks() const { return *tasks_; }

  // Ends the run's page reads. A pool the context built dies with the run,
  // so every frame it prefetched and no reader consumed is a wasted read,
  // charged to `stats`'s prefetch_wasted. A lent pool keeps such frames
  // for the runs that share it, so nothing is charged.
  void ChargeUnconsumedPrefetches(Statistics* stats) const;

 private:
  std::unique_ptr<BufferPool> owned_pool_;  // null when lent
  BufferPool* pool_;
  std::unique_ptr<Prefetcher> prefetcher_;
  IoScheduler* const io_;
  MemoryGovernor* const governor_;
  const ChunkArena arena_;
  std::unique_ptr<TaskPool> owned_tasks_;  // null when lent
  TaskPool* tasks_;
  TraceRecorder* const tracer_;
  const uint32_t trace_pid_;
  IoWindow window_;
};

}  // namespace rsj

#endif  // RSJ_EXEC_EXEC_CONTEXT_H_
