// Shared task execution for the serving engine: one oversubscribed thread
// set running every concurrent session's subtree-pair tasks.
//
// Standalone executors spawn a run-private TaskScheduler per join; with N
// concurrent sessions that is N × num_threads threads fighting over the
// machine. The SessionTaskPool instead implements the
// ExecContext::TaskRunner contract over one fixed team:
//
//   * every Run() registers the session's task batch and the CALLER DRIVES
//     ITS OWN RUN — it claims and executes its own tasks until none are
//     left, so a session always makes progress even when the pool threads
//     are busy elsewhere (no priority inversion, no idle convoy);
//   * the pool threads drain the active runs ROUND-ROBIN, one task per
//     visit, so no session starves behind a large batch submitted earlier
//     — fairness is positional, not timestamp-based, and deterministic
//     under a single pool thread;
//   * each run carries a WORKER-SLOT FREELIST: a task executes only after
//     popping one of the run's `workers` slots and returns it afterwards,
//     so at most one live fn(slot, task) per slot exists at any moment —
//     the slot exclusivity the executor's single-owner WorkerContexts
//     require (and what TSan checks in engine_test);
//   * per-slot executed-task counts are returned exactly like
//     TaskScheduler::Run's, so executor telemetry is unchanged.
//
// The pool never blocks inside a claimed task beyond what fn itself does;
// a task that blocks delays only the threads executing it, and the
// caller-drives-own-run rule keeps every registered run live. Zero pool
// threads is legal: Run() degrades to the caller executing its whole batch
// inline.

#ifndef RSJ_ENGINE_TASK_POOL_H_
#define RSJ_ENGINE_TASK_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/exec_context.h"

namespace rsj {

class SessionTaskPool {
 public:
  struct Options {
    // Pool worker threads shared by all runs. 0 = caller-only execution.
    unsigned num_threads = 4;
    // Names the pool threads' trace tracks ("pool-worker-<i>",
    // obs/trace.h); nullptr = no naming. Not owned; must outlive the
    // pool.
    TraceRecorder* tracer = nullptr;
  };

  explicit SessionTaskPool(const Options& options);
  ~SessionTaskPool();

  SessionTaskPool(const SessionTaskPool&) = delete;
  SessionTaskPool& operator=(const SessionTaskPool&) = delete;

  // The TaskRunner contract: blocks until all `num_tasks` tasks ran,
  // returns per-slot executed-task counts (size `workers`). Concurrent
  // calls from different threads are the intended use — each call is one
  // session's task batch. `fn` must be safe to call from pool threads.
  std::vector<uint64_t> Run(unsigned workers, size_t num_tasks,
                            const std::function<void(unsigned, size_t)>& fn);

  // A TaskRunner bound to this pool, for the sessions' contexts.
  ExecContext::TaskRunner runner();

  // --- telemetry ---
  // Tasks executed through the pool (callers + pool threads).
  uint64_t tasks_executed() const;
  // Tasks executed by pool threads (the rest ran on session callers).
  uint64_t pool_assists() const;
  // Run() calls completed.
  uint64_t runs_completed() const;
  // Most runs ever registered at once.
  size_t peak_concurrent_runs() const;

 private:
  struct RunState {
    const std::function<void(unsigned, size_t)>* fn = nullptr;
    size_t num_tasks = 0;
    size_t next_task = 0;   // next unclaimed task index
    size_t done_tasks = 0;  // tasks whose fn returned
    std::vector<unsigned> free_slots;  // LIFO worker-slot freelist
    std::vector<uint64_t> slot_counts;

    bool finished() const { return done_tasks == num_tasks; }
    bool claimable() const {
      return next_task < num_tasks && !free_slots.empty();
    }
  };

  struct Claim {
    RunState* run = nullptr;
    unsigned slot = 0;
    size_t task = 0;
  };

  // All *Locked helpers require mu_ held.
  bool ClaimLocked(RunState* run, Claim* out);
  bool ClaimAnyLocked(Claim* out);
  void FinishLocked(const Claim& claim, bool pool_thread);
  void WorkerLoop(unsigned index);

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

#endif  // RSJ_ENGINE_TASK_POOL_H_
