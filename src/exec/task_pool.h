// The one task runner of the executors: a fixed thread team that runs the
// subtree-pair tasks of every run on it. An ExecContext builds one for its
// lifetime unless one is lent: a serving engine lends its own to every
// session, a sharded run one to every shard (exec/exec_context.h).
//
//   * every Run() registers its task batch and the CALLER DRIVES ITS OWN
//     RUN — it takes the run's first task (slot 0's) before the pool
//     threads are told of the run, then claims and executes tasks until
//     none are left, so a run always makes progress even when the pool
//     threads are busy elsewhere, and nested or concurrent runs cannot
//     deadlock;
//   * the pool threads drain the active runs ROUND-ROBIN, one task per
//     visit, so no run starves behind a large batch submitted earlier
//     — fairness is positional, not timestamp-based;
//   * each run carries a WORKER-SLOT FREELIST: a task executes only after
//     taking one of the run's `workers` slots and returns it afterwards,
//     so at most one live fn(slot, task) per slot exists at any moment —
//     the slot exclusivity the executor's single-owner workers require;
//   * the tasks are DEALT IN BLOCKS: slot w owns the w-th contiguous block
//     of the task indices (neighbouring partitions tend to share parent
//     pages, so a block keeps its slot's reads local). A claim takes the
//     front task of the most recently freed slot whose block still has
//     tasks; only when no free slot has tasks left does the most recently
//     freed slot steal the back task of the largest block. So with zero
//     pool threads the caller runs tasks 0..n-1 in order and slot w runs
//     block w, and every slot whose block is non-empty runs at least one
//     task: a free slot's block is never stolen from.
//
// The pool never blocks inside a claimed task beyond what fn itself does;
// a task that blocks delays only the threads executing it.

#ifndef RSJ_EXEC_TASK_POOL_H_
#define RSJ_EXEC_TASK_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rsj {

class TraceRecorder;

class TaskPool {
 public:
  // Called as fn(slot, task); calls with distinct slots run concurrently.
  using TaskFn = std::function<void(unsigned slot, size_t task)>;

  struct Options {
    // Pool worker threads shared by all runs. 0 = caller-only execution.
    unsigned num_threads = 4;
    // Names the pool threads' trace tracks ("pool-worker-<i>",
    // obs/trace.h); nullptr = no naming. Not owned; must outlive the
    // pool.
    TraceRecorder* tracer = nullptr;
  };

  explicit TaskPool(const Options& options);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Runs tasks 0..num_tasks-1 on `workers` slots (>= 1) and blocks until
  // all ran; returns the tasks each slot ran. Concurrent calls from
  // different threads are the intended use — each call is one run's task
  // batch. `fn` must be safe to call from pool threads.
  std::vector<uint64_t> Run(unsigned workers, size_t num_tasks,
                            const TaskFn& fn);

  // --- telemetry ---
  // Tasks executed through the pool (callers + pool threads).
  uint64_t tasks_executed() const;
  // Tasks executed by pool threads (the rest ran on run callers).
  uint64_t pool_assists() const;
  // Run() calls completed.
  uint64_t runs_completed() const;
  // Most runs ever registered at once.
  size_t peak_concurrent_runs() const;

 private:
  // A slot's unclaimed tasks: its owner takes `begin`, thieves `end - 1`.
  struct Block {
    size_t begin = 0;
    size_t end = 0;
  };

  struct RunState {
    const TaskFn* fn = nullptr;
    size_t num_tasks = 0;
    size_t unclaimed = 0;   // tasks left in the blocks
    size_t done_tasks = 0;  // tasks whose fn returned
    std::vector<Block> blocks;         // one per slot
    std::vector<unsigned> free_slots;  // most recently freed last
    std::vector<uint64_t> slot_counts;

    bool finished() const { return done_tasks == num_tasks; }
    bool claimable() const { return unclaimed > 0 && !free_slots.empty(); }
  };

  struct Claim {
    RunState* run = nullptr;
    unsigned slot = 0;
    size_t task = 0;
  };

  // All *Locked helpers require mu_ held.
  static bool ClaimLocked(RunState* run, Claim* out);
  bool ClaimAnyLocked(Claim* out);
  void FinishLocked(const Claim& claim, bool pool_thread);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // pool threads wait for claimable work
  std::condition_variable done_cv_;  // Run() callers wait for slots/finish
  std::vector<RunState*> runs_;      // active runs, registration order
  size_t rr_cursor_ = 0;             // round-robin position in runs_
  bool shutdown_ = false;

  uint64_t tasks_executed_ = 0;
  uint64_t pool_assists_ = 0;
  uint64_t runs_completed_ = 0;
  size_t peak_concurrent_runs_ = 0;

  std::vector<std::thread> threads_;
};

}  // namespace rsj

#endif  // RSJ_EXEC_TASK_POOL_H_
