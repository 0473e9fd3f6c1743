// Work-stealing task scheduler for the parallel join executor.
//
// A fixed task list (indices 0..n-1) is dealt to per-worker deques in
// contiguous blocks — neighbouring partitions tend to share parent pages,
// so block ownership preserves locality. Each worker pops from the front of
// its own deque; when it runs dry it steals single tasks from the *back* of
// the fullest victim queue (the classic Arora/Blumofe/Plackett shape:
// owner and thieves touch opposite ends).
//
// Thieves always leave at least one task in a victim's queue. That costs at
// most one task of tail latency per worker but yields a guarantee the skew
// tests rely on: every worker whose initial block is non-empty executes at
// least one task, no matter how the OS schedules the threads.

#ifndef RSJ_EXEC_TASK_SCHEDULER_H_
#define RSJ_EXEC_TASK_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

namespace rsj {

class TaskScheduler {
 public:
  // Called as task_fn(worker_index, task_index); invocations with distinct
  // task indices run concurrently on different workers.
  using TaskFn = std::function<void(unsigned, size_t)>;

  // Deals tasks 0..num_tasks-1 to `num_workers` queues (num_workers >= 1).
  TaskScheduler(unsigned num_workers, size_t num_tasks);

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  // Runs every task exactly once across the workers; blocks until all are
  // done. The calling thread is worker 0 and one thread is spawned per
  // further worker (none for one worker). Returns the number of tasks each
  // worker executed. May only be called once per scheduler instance.
  std::vector<uint64_t> Run(const TaskFn& task_fn);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<size_t> tasks;
  };

  // Pops the front of worker `w`'s own queue. False when empty.
  bool PopOwn(unsigned w, size_t* task);

  // Steals one task from the back of another worker's queue, always
  // leaving at least one behind. False when nothing is stealable.
  bool Steal(unsigned thief, size_t* task);

  unsigned workers_;
  std::vector<Queue> queues_;
};

}  // namespace rsj

#endif  // RSJ_EXEC_TASK_SCHEDULER_H_
