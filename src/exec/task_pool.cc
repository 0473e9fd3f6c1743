#include "exec/task_pool.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"

namespace rsj {

TaskPool::TaskPool(const Options& options) {
  threads_.reserve(options.num_threads);
  TraceRecorder* const tracer = options.tracer;
  for (unsigned i = 0; i < options.num_threads; ++i) {
    threads_.emplace_back([this, tracer, i] {
      if (tracer != nullptr) {
        tracer->SetThreadName("pool-worker-" + std::to_string(i));
      }
      WorkerLoop();
    });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RSJ_CHECK_MSG(runs_.empty(), "TaskPool destroyed with active runs");
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool TaskPool::ClaimLocked(RunState* run, Claim* out) {
  if (!run->claimable()) return false;
  std::vector<unsigned>& free = run->free_slots;
  out->run = run;
  --run->unclaimed;
  // The most recently freed slot whose own block has tasks runs its front.
  for (size_t i = free.size(); i-- > 0;) {
    Block& own = run->blocks[free[i]];
    if (own.begin < own.end) {
      out->slot = free[i];
      out->task = own.begin++;
      free.erase(free.begin() + i);
      return true;
    }
  }
  // No free slot has tasks left: the most recently freed one steals the
  // back task of the largest block, whose owner is busy.
  Block& victim = *std::max_element(
      run->blocks.begin(), run->blocks.end(),
      [](const Block& a, const Block& b) {
        return a.end - a.begin < b.end - b.begin;
      });
  out->slot = free.back();
  out->task = --victim.end;
  free.pop_back();
  return true;
}

bool TaskPool::ClaimAnyLocked(Claim* out) {
  // One task per visit, resuming where the last claim left off: positional
  // round-robin across the active runs.
  const size_t n = runs_.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t at = (rr_cursor_ + i) % n;
    if (ClaimLocked(runs_[at], out)) {
      rr_cursor_ = (at + 1) % n;
      return true;
    }
  }
  return false;
}

void TaskPool::FinishLocked(const Claim& claim, bool pool_thread) {
  claim.run->free_slots.push_back(claim.slot);
  ++claim.run->slot_counts[claim.slot];
  ++claim.run->done_tasks;
  ++tasks_executed_;
  if (pool_thread) ++pool_assists_;
  // The freed slot may unblock a pool thread waiting for claimable work,
  // and the run's caller either has a new claim or is done — done_cv_ is
  // shared by all callers, so wake them all and let predicates sort it.
  if (claim.run->claimable()) work_cv_.notify_one();
  done_cv_.notify_all();
}

void TaskPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Claim claim;
    if (ClaimAnyLocked(&claim)) {
      lock.unlock();
      (*claim.run->fn)(claim.slot, claim.task);
      lock.lock();
      FinishLocked(claim, /*pool_thread=*/true);
      continue;
    }
    if (shutdown_) return;
    work_cv_.wait(lock);
  }
}

std::vector<uint64_t> TaskPool::Run(unsigned workers, size_t num_tasks,
                                    const TaskFn& fn) {
  RSJ_CHECK_MSG(workers >= 1, "TaskPool::Run needs >= 1 worker slot");
  RunState run;
  run.fn = &fn;
  run.num_tasks = num_tasks;
  run.unclaimed = num_tasks;
  run.slot_counts.assign(workers, 0);
  // Contiguous block deal: slot w owns the w-th block of base tasks, the
  // first num_tasks % workers blocks one task longer.
  run.blocks.resize(workers);
  const size_t base = num_tasks / workers;
  const size_t extra = num_tasks % workers;
  size_t next = 0;
  for (unsigned w = 0; w < workers; ++w) {
    run.blocks[w].begin = next;
    next += base + (w < extra ? 1 : 0);
    run.blocks[w].end = next;
  }
  // Pushed descending so slot 0 is claimed first.
  run.free_slots.reserve(workers);
  for (unsigned w = workers; w > 0; --w) run.free_slots.push_back(w - 1);

  std::unique_lock<std::mutex> lock(mu_);
  runs_.push_back(&run);
  peak_concurrent_runs_ = std::max(peak_concurrent_runs_, runs_.size());

  // The caller drives its own run: claim-execute until every task is
  // claimed, then wait for the in-flight remainder to finish. Its first
  // claim comes before the pool threads are told of the run, so every run
  // starts on its caller whatever the wake-up timing; they are told with
  // mu_ free, so a woken thread claims at once instead of blocking on mu_.
  bool pool_told = false;
  while (!run.finished()) {
    Claim claim;
    if (ClaimLocked(&run, &claim)) {
      lock.unlock();
      if (!pool_told) {
        work_cv_.notify_all();
        pool_told = true;
      }
      fn(claim.slot, claim.task);
      lock.lock();
      FinishLocked(claim, /*pool_thread=*/false);
      continue;
    }
    done_cv_.wait(lock);
  }

  runs_.erase(std::find(runs_.begin(), runs_.end(), &run));
  if (rr_cursor_ >= runs_.size()) rr_cursor_ = 0;
  ++runs_completed_;
  return std::move(run.slot_counts);
}

uint64_t TaskPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_executed_;
}

uint64_t TaskPool::pool_assists() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_assists_;
}

uint64_t TaskPool::runs_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_completed_;
}

size_t TaskPool::peak_concurrent_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_concurrent_runs_;
}

}  // namespace rsj
