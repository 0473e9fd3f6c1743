#include "exec/task_scheduler.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace rsj {

TaskScheduler::TaskScheduler(unsigned num_workers, size_t num_tasks)
    : workers_(num_workers), queues_(std::max(1u, num_workers)) {
  RSJ_CHECK_MSG(num_workers >= 1, "scheduler needs at least one worker");
  // Contiguous block deal: worker w owns tasks [w*chunk, (w+1)*chunk) with
  // the remainder spread over the first queues.
  const size_t base = num_tasks / workers_;
  const size_t extra = num_tasks % workers_;
  size_t next = 0;
  for (unsigned w = 0; w < workers_; ++w) {
    const size_t block = base + (w < extra ? 1 : 0);
    for (size_t i = 0; i < block; ++i) {
      queues_[w].tasks.push_back(next++);
    }
  }
}

bool TaskScheduler::PopOwn(unsigned w, size_t* task) {
  Queue& q = queues_[w];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.tasks.empty()) return false;
  *task = q.tasks.front();
  q.tasks.pop_front();
  return true;
}

bool TaskScheduler::Steal(unsigned thief, size_t* task) {
  // Scan victims starting after the thief so thieves fan out over
  // different queues instead of all hammering worker 0.
  for (unsigned d = 1; d < workers_; ++d) {
    const unsigned victim = (thief + d) % workers_;
    Queue& q = queues_[victim];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.size() <= 1) continue;  // leave the owner its last task
    *task = q.tasks.back();
    q.tasks.pop_back();
    return true;
  }
  return false;
}

std::vector<uint64_t> TaskScheduler::Run(const TaskFn& task_fn) {
  std::vector<uint64_t> executed(workers_, 0);
  auto worker_loop = [&](unsigned w) {
    size_t task;
    while (true) {
      if (PopOwn(w, &task) || Steal(w, &task)) {
        task_fn(w, task);
        ++executed[w];
        continue;
      }
      // Own queue empty and nothing stealable: every remaining task is the
      // last one of some other owner's queue — done here.
      return;
    }
  };

  // The caller is worker 0 and drives its own run; only workers 1..n-1
  // get threads. jthreads, so they are joined before `executed` goes
  // even when worker 0's task throws.
  std::vector<std::jthread> threads;
  threads.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (std::jthread& t : threads) t.join();
  return executed;
}

}  // namespace rsj
