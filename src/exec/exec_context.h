// The execution context of one executor run: the one owner of the
// resources the run reads through, and the only code that opens and
// closes the run's modeled-I/O window.
//
// A run of the parallel executors (exec/parallel_executor.h,
// exec/multiway_executor.h) shares across its phases and workers:
//   * one SharedBufferPool and one NodeCache over it, so directory nodes
//     the coordinator decodes are never decoded again,
//   * a Prefetcher over the pool, when the plan prefetches,
//   * the IoScheduler that models the pool's misses and the spill writes,
//   * the MemoryGovernor that result, spill and frontier budgets mirror
//     into,
//   * the ChunkArena result chunks recycle through,
//   * the task runner that executes the run's tasks,
//   * the tracer, and the trace pid the run's spans carry.
//
// A STANDALONE context owns the pool, cache and prefetcher and borrows the
// scheduler, governor, tracer and (when one is given) the arena the caller
// put into ParallelExecutorOptions; the RunParallel* wrappers build one per
// run and the sharded join one per shard. A BORROWED context runs one
// session of a serving engine (engine/query_engine.h) on the engine's
// pool, cache, scheduler, governor, task pool and tracer; it owns only the
// session's prefetcher and arena. A chain runs its probes inside its
// pairwise workers, so one pool, cache and window span every phase.
//
// The executors never close the window themselves: whoever built the
// context closes it once, after the run, and reads the run's modeled
// elapsed time from the close.

#ifndef RSJ_EXEC_EXEC_CONTEXT_H_
#define RSJ_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "exec/result_sink.h"
#include "io/prefetcher.h"
#include "join/join_options.h"
#include "storage/node_cache.h"
#include "storage/shared_buffer_pool.h"
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

class ExecContext {
 public:
  // Executes `num_tasks` tasks on `workers` worker slots and returns the
  // tasks each slot ran (the TaskScheduler::Run contract). The runner must
  // guarantee worker-slot exclusivity: at most one live call of `fn` per
  // slot at a time (worker state is single-owner).
  using TaskRunner = std::function<std::vector<uint64_t>(
      unsigned workers, size_t num_tasks,
      const std::function<void(unsigned worker, size_t task)>& fn)>;

  // What a serving engine lends each session. `nodes` is layered over
  // `pool`, whose page size matches the trees', and `pool` already reads
  // through `io`. Nothing is owned; everything outlives the context.
  struct Borrowed {
    SharedBufferPool* pool = nullptr;
    NodeCache* nodes = nullptr;
    IoScheduler* io = nullptr;
    MemoryGovernor* governor = nullptr;
    TaskRunner task_runner;
    TraceRecorder* tracer = nullptr;
    uint32_t trace_pid = 0;
  };

  // Standalone: a pool of join.buffer_bytes over pages of `page_size` (the
  // trees'), the node cache over it and, with exec.prefetch, a prefetcher;
  // exec's io_scheduler, memory_governor, tracer and chunk_arena (a
  // private arena when null) are borrowed, the window over the scheduler
  // is owned, and tasks run on a run-private TaskScheduler.
  ExecContext(const JoinOptions& join, uint32_t page_size,
              const ParallelExecutorOptions& exec);

  // Borrowed: one session on `shared`, with its own prefetcher (when
  // exec.prefetch) and chunk arena, and a borrowed window.
  ExecContext(const Borrowed& shared, const ParallelExecutorOptions& exec);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  SharedBufferPool* pool() const { return pool_; }
  NodeCache* nodes() const { return nodes_; }
  // nullptr unless the run prefetches.
  Prefetcher* prefetcher() const { return prefetcher_.get(); }
  IoScheduler* io() const { return io_; }
  MemoryGovernor* governor() const { return governor_; }
  const ChunkArena& arena() const { return arena_; }
  TraceRecorder* tracer() const { return tracer_; }
  uint32_t trace_pid() const { return trace_pid_; }
  IoWindow& window() { return window_; }

  // Runs the tasks through the borrowed runner, or a run-private
  // TaskScheduler.
  std::vector<uint64_t> RunTasks(
      unsigned workers, size_t num_tasks,
      const std::function<void(unsigned worker, size_t task)>& fn) const;

 private:
  std::unique_ptr<SharedBufferPool> owned_pool_;  // null when borrowed
  std::unique_ptr<NodeCache> owned_nodes_;        // null when borrowed
  SharedBufferPool* pool_;
  NodeCache* nodes_;
  std::unique_ptr<Prefetcher> prefetcher_;
  IoScheduler* const io_;
  MemoryGovernor* const governor_;
  const ChunkArena arena_;
  const TaskRunner task_runner_;
  TraceRecorder* const tracer_;
  const uint32_t trace_pid_;
  IoWindow window_;
};

}  // namespace rsj

#endif  // RSJ_EXEC_EXEC_CONTEXT_H_
