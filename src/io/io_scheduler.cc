#include "io/io_scheduler.h"

#include <algorithm>

namespace rsj {

IoScheduler::IoScheduler(const Options& options)
    : options_(options), disks_(options.disks) {}

uint64_t IoScheduler::ActorClockLocked(const void* actor) const {
  const auto it = actor_clocks_.find(actor);
  return it == actor_clocks_.end() ? floor_micros_
                                   : std::max(floor_micros_, it->second);
}

void IoScheduler::AdvanceActorLocked(const void* actor, uint64_t to) {
  uint64_t& clock = actor_clocks_[actor];
  clock = std::max({clock, floor_micros_, to});
}

void IoScheduler::StallUntilLocked(Statistics* stats, uint64_t completion) {
  const uint64_t now = ActorClockLocked(stats);
  if (completion <= now) return;
  if (stats != nullptr) stats->modeled_io_micros += completion - now;
  AdvanceActorLocked(stats, completion);
}

bool IoScheduler::ConsumeCompletionLocked(const RequestKey& key,
                                          Statistics* stats) {
  const auto it = completed_.find(key);
  if (it == completed_.end()) return false;
  const uint64_t completion = it->second;
  completed_.erase(it);
  StallUntilLocked(stats, completion);
  return true;
}

bool IoScheduler::SubmitAsync(const void* owner, const PagedFile& file,
                              PageId id, uint32_t page_size,
                              const void* actor) {
  const RequestKey key{owner, &file, id};
  std::lock_guard<std::mutex> lock(mu_);
  if (completed_.contains(key)) {
    return false;  // coalesced with the unconsumed completion
  }
  completed_.emplace(
      key, disks_.Service(file, id, page_size, ActorClockLocked(actor)));
  ++async_reads_;
  if (options_.tracer != nullptr && options_.tracer->enabled() &&
      options_.tracer->Sample()) {
    options_.tracer->Instant("io", "prefetch_issue", 0);
  }
  return true;
}

bool IoScheduler::BlockingRead(const void* owner, const PagedFile& file,
                               PageId id, uint32_t page_size,
                               Statistics* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  // A kept completion was paid at submission: only its stall remains.
  if (ConsumeCompletionLocked(RequestKey{owner, &file, id}, stats)) {
    return true;
  }
  StallUntilLocked(stats, disks_.Service(file, id, page_size,
                                         ActorClockLocked(stats)));
  return false;
}

void IoScheduler::WriteRun(const void* owner, const PagedFile& file,
                           PageId first, uint32_t count, uint32_t page_size,
                           Statistics* stats) {
  (void)owner;  // writes are never coalesced; the scope is for symmetry
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  disk_writes_ += count;
  if (stats != nullptr) stats->disk_writes += count;
  const uint64_t issue = ActorClockLocked(stats);
  // All pages of the run are issued at once: every disk's share queues at
  // `issue` and the run completes when the slowest disk finishes. The
  // per-disk service order is ascending page id, so consecutive stripe
  // units of the run keep the sequential discount.
  TraceSpan span(options_.tracer, "io", "write_run", 0, /*sampled=*/true);
  uint64_t completion = 0;
  for (uint32_t i = 0; i < count; ++i) {
    completion = std::max(
        completion, disks_.ServiceWrite(file, first + i, page_size, issue));
  }
  span.set_modeled_range(issue, completion);
  span.set_arg("pages", count);
  StallUntilLocked(stats, completion);
}

void IoScheduler::ConsumePrefetched(const void* owner, const PagedFile& file,
                                    PageId id, Statistics* stats) {
  const RequestKey key{owner, &file, id};
  std::lock_guard<std::mutex> lock(mu_);
  if (!completed_.contains(key)) return;
  TraceSpan span(options_.tracer, "io", "prefetch_consume", 0,
                 /*sampled=*/true);
  const uint64_t before = ActorClockLocked(stats);
  ConsumeCompletionLocked(key, stats);
  span.set_modeled_range(before, ActorClockLocked(stats));
}

void IoScheduler::AbandonPrefetched(const void* owner, const PagedFile& file,
                                    PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  completed_.erase(RequestKey{owner, &file, id});
}

void IoScheduler::CpuAdvance(const void* actor, uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceActorLocked(actor, ActorClockLocked(actor) + micros);
}

void IoScheduler::ChargeCpuPerRead(const void* actor) {
  if (options_.cpu_micros_per_read == 0) return;
  CpuAdvance(actor, options_.cpu_micros_per_read);
}

uint64_t IoScheduler::SynchronizeClocks() {
  std::lock_guard<std::mutex> lock(mu_);
  floor_micros_ = std::max(floor_micros_, retired_peak_micros_);
  retired_peak_micros_ = 0;
  for (const auto& [actor, clock] : actor_clocks_) {
    floor_micros_ = std::max(floor_micros_, clock);
  }
  actor_clocks_.clear();
  return floor_micros_;
}

uint64_t IoScheduler::NowMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t now = std::max(floor_micros_, retired_peak_micros_);
  for (const auto& [actor, clock] : actor_clocks_) {
    now = std::max(now, clock);
  }
  return now;
}

uint64_t IoScheduler::FloorMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return floor_micros_;
}

uint64_t IoScheduler::ActorClock(const void* actor) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ActorClockLocked(actor);
}

uint64_t IoScheduler::RetireActor(const void* actor) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t clock = ActorClockLocked(actor);
  actor_clocks_.erase(actor);
  retired_peak_micros_ = std::max(retired_peak_micros_, clock);
  return clock;
}

uint64_t IoScheduler::async_reads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return async_reads_;
}

uint64_t IoScheduler::disk_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_writes_;
}

}  // namespace rsj
