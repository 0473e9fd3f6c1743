#include "engine/task_pool.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"

namespace rsj {

SessionTaskPool::SessionTaskPool(const Options& options) {
  threads_.reserve(options.num_threads);
  TraceRecorder* const tracer = options.tracer;
  for (unsigned i = 0; i < options.num_threads; ++i) {
    threads_.emplace_back([this, tracer, i] {
      if (tracer != nullptr) {
        tracer->SetThreadName("pool-worker-" + std::to_string(i));
      }
      WorkerLoop(i);
    });
  }
}

SessionTaskPool::~SessionTaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RSJ_CHECK_MSG(runs_.empty(), "SessionTaskPool destroyed with active runs");
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool SessionTaskPool::ClaimLocked(RunState* run, Claim* out) {
  if (!run->claimable()) return false;
  out->run = run;
  out->slot = run->free_slots.back();
  run->free_slots.pop_back();
  out->task = run->next_task++;
  return true;
}

bool SessionTaskPool::ClaimAnyLocked(Claim* out) {
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

void SessionTaskPool::FinishLocked(const Claim& claim, bool pool_thread) {
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

void SessionTaskPool::WorkerLoop(unsigned index) {
  (void)index;
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

std::vector<uint64_t> SessionTaskPool::Run(
    unsigned workers, size_t num_tasks,
    const std::function<void(unsigned, size_t)>& fn) {
  RSJ_CHECK_MSG(workers >= 1, "SessionTaskPool::Run needs >= 1 worker slot");
  RunState run;
  run.fn = &fn;
  run.num_tasks = num_tasks;
  run.slot_counts.assign(workers, 0);
  run.free_slots.reserve(workers);
  // Pushed descending so slot 0 pops first — matches TaskScheduler's
  // low-slot-first assignment for single-threaded determinism.
  for (unsigned w = workers; w > 0; --w) run.free_slots.push_back(w - 1);

  std::unique_lock<std::mutex> lock(mu_);
  runs_.push_back(&run);
  peak_concurrent_runs_ = std::max(peak_concurrent_runs_, runs_.size());
  work_cv_.notify_all();

  // The caller drives its own run: claim-execute until every task is
  // claimed, then wait for the in-flight remainder to finish.
  while (!run.finished()) {
    Claim claim;
    if (ClaimLocked(&run, &claim)) {
      lock.unlock();
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

ExecContext::TaskRunner SessionTaskPool::runner() {
  return [this](unsigned workers, size_t num_tasks,
                const std::function<void(unsigned, size_t)>& fn) {
    return Run(workers, num_tasks, fn);
  };
}

uint64_t SessionTaskPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_executed_;
}

uint64_t SessionTaskPool::pool_assists() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pool_assists_;
}

uint64_t SessionTaskPool::runs_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_completed_;
}

size_t SessionTaskPool::peak_concurrent_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_concurrent_runs_;
}

}  // namespace rsj
