// I/O scheduler over the simulated disk array.
//
// The scheduler turns page requests into modeled time. The pages are
// already in memory (storage/paged_file.h), so there is no real I/O to
// wait for: every request is serviced on the calling thread, at the
// requesting actor's clock, before the call returns. Per-disk service
// order is therefore call order, and a run with one consumer thread is
// deterministic, prefetching included.
//
// One virtual clock PER ACTOR. An actor is a consumer timeline — in
// practice the `Statistics*` of the requesting worker, which is the
// per-worker identity everywhere in this codebase. Each actor advances
// its own clock:
//   * a synchronous miss (`BlockingRead`) services the page at the actor's
//     clock and moves that clock to the completion — one outstanding
//     request per actor, the no-overlap baseline;
//   * a synchronous `Write` is the same, with write service costing;
//   * an async read (`SubmitAsync`, the prefetch path) is serviced at the
//     submitting actor's clock but advances no clock: its completion is
//     kept until the first consumer touch, so the disks work ahead in the
//     background of every timeline;
//   * the first consumer touch of a prefetched page (`ConsumePrefetched`,
//     or `BlockingRead` of a page with a kept completion) advances the
//     touching actor's clock to the request's completion, so only the
//     service time not hidden behind that actor's other work is paid as
//     stall;
//   * `CpuAdvance` charges modeled CPU work to one actor, overlapping
//     with the disks and with every other actor.
// The disks themselves stay shared hardware: per-disk busy-until
// timelines serialize contending requests of all actors physically.
//
// At a join point (the end of a parallel region) the executor calls
// `SynchronizeClocks()`: the actor clocks merge by MAX into the floor —
// concurrent work counts once, not summed — and the actor table resets,
// so the merged value is the modeled elapsed time of the region and later
// actors (whose Statistics may reuse freed addresses) start clean.
//
// All stall micros are charged to the requesting actor's
// `Statistics::modeled_io_micros`. Page caches use the scheduler through
// `BufferPool::AttachIoScheduler`; the spill path (exec/spill_sink.h)
// uses Write/WriteRun/SubmitAsync/BlockingRead directly; nothing else in
// the join layer talks to it.
//
// Ownership & threading contracts:
//   * The scheduler is thread-safe: any thread may submit, read or write
//     concurrently; one mutex orders the calls. It owns the disk array
//     and no threads.
//   * The scheduler is not owned by its users: every pool, prefetcher,
//     spill file and executor that holds an IoScheduler* must be
//     outlived by it — including post-run consumers such as a
//     SpilledResult that re-reads blocks through the file.
//   * `owner` (request identity scope) is a cache or spill file;
//     `actor` / `stats` (clock identity) is the calling worker's
//     Statistics*. Neither pointer is dereferenced for I/O identity
//     purposes, but `stats` is written through when counters are
//     charged, so it must stay valid for the call.
//   * After SynchronizeClocks() retired an actor table, a reused
//     Statistics address starts a fresh clock — call it at every join
//     point so freed actors cannot leak stale clocks into later runs.

#ifndef RSJ_IO_IO_SCHEDULER_H_
#define RSJ_IO_IO_SCHEDULER_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "io/disk_model.h"
#include "obs/trace.h"
#include "storage/page_cache.h"
#include "storage/statistics.h"

namespace rsj {

class IoScheduler {
 public:
  struct Options {
    DiskModelOptions disks;

    // Modeled CPU micros charged per consumer page request (the join work
    // that follows a node fetch); this is the computation the prefetcher
    // hides I/O behind. 0 disables CPU charging.
    uint64_t cpu_micros_per_read = 0;

    // Span sink for write runs and prefetch issues/consumes (pid 0
    // tracks); nullptr = no tracing. Must outlive the scheduler.
    TraceRecorder* tracer = nullptr;
  };

  explicit IoScheduler(const Options& options);

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  // Request identity is scoped by `owner` (the page cache — or cache
  // shard — issuing it): coalescing and completion joining never cross
  // pool boundaries, so private per-worker pools keep paying their own
  // misses, while the disks themselves stay shared hardware. The clock
  // identity is separate: `actor` (or the `stats` pointer) names the
  // consumer timeline the request is charged against.

  // Async read of (file, id): services it at `actor`'s modeled clock
  // (nullptr: the anonymous actor) without advancing any clock, and keeps
  // the completion for the first consumer touch. Returns false when this
  // owner already holds an unconsumed completion for the page (coalesced
  // — no second physical read).
  bool SubmitAsync(const void* owner, const PagedFile& file, PageId id,
                   uint32_t page_size, const void* actor = nullptr);

  // Synchronous read on a cache miss; the actor is `stats`. When the owner
  // holds an unconsumed async completion for the page, consumes it:
  // charges the residual stall and returns true (the physical read was
  // already paid for at submission). Otherwise services the page at the
  // actor's clock, advances that clock to the completion, charges the full
  // stall and returns false.
  bool BlockingRead(const void* owner, const PagedFile& file, PageId id,
                    uint32_t page_size, Statistics* stats);

  // Synchronous timed write of one page; the actor is `stats`. Services
  // the write at the actor's clock (write costing, see
  // SimulatedDiskArray::ServiceWrite), advances that clock to the
  // completion, and counts `stats->disk_writes` plus the stall — the
  // write path the spill sinks (exec/spill_sink.h) and future persist
  // operators meter themselves with.
  void Write(const void* owner, const PagedFile& file, PageId id,
             uint32_t page_size, Statistics* stats);

  // Timed write of a contiguous page run (e.g. a spilled result chunk's
  // pages), submitted together: every page is issued at the actor's
  // current clock, the striping spreads the run over the disks, and each
  // disk services its share back to back (consecutive stripe units ride
  // the sequential discount). Advances the actor's clock to the latest
  // completion, charges the stall once, and counts one disk_write per
  // page. Equivalent to `count` Write() calls except that the pages
  // overlap across disks instead of serializing on the actor's clock.
  void WriteRun(const void* owner, const PagedFile& file, PageId first,
                uint32_t count, uint32_t page_size, Statistics* stats);

  // First consumer touch of a prefetched-and-landed page: advances the
  // actor's (`stats`) clock to the async request's completion and charges
  // the residual stall (zero when the prefetch ran far enough ahead of
  // this actor). No-op when the owner holds no completion for the page.
  void ConsumePrefetched(const void* owner, const PagedFile& file, PageId id,
                         Statistics* stats);

  // The owner dropped a prefetched page before any consumer touched it
  // (evicted or cleared): forget the completion so a later miss pays a
  // genuine read instead of silently consuming the stale prefetch.
  void AbandonPrefetched(const void* owner, const PagedFile& file, PageId id);

  // Charges modeled CPU work to `actor`'s timeline.
  void CpuAdvance(const void* actor, uint64_t micros);

  // CpuAdvance(actor, options.cpu_micros_per_read); called by the page
  // caches on every consumer page request.
  void ChargeCpuPerRead(const void* actor);

  // Join point: merges every actor clock (and the retired-actor peak)
  // into the floor by MAX, resets the actor table, and returns the merged
  // clock. Executors that OWN the I/O lifecycle call this at the end of a
  // (parallel) run; the delta against the clock before the run is the
  // run's modeled elapsed time. Executors that merely BORROW a scheduler
  // from an enclosing engine must not call it mid-run (it would fold
  // every concurrent session's clocks); they use RetireActor below and
  // the engine synchronizes once at its own join point.
  uint64_t SynchronizeClocks();

  // Current merged modeled clock: max over the floor, the retired-actor
  // peak, and all live actors.
  uint64_t NowMicros() const;

  // --- borrowed-lifecycle actor API (engine/query_engine.h) ---
  // Concurrent sessions share one scheduler and must not synchronize it
  // mid-run; instead each run reads and retires its own actors.

  // The merged clock of completed regions only (excludes live and
  // retired actors of the current region): the common start line every
  // fresh actor begins at — the baseline a borrowed run measures its
  // modeled elapsed time against.
  uint64_t FloorMicros() const;

  // Current clock of one actor (>= floor); the floor for unknown actors.
  uint64_t ActorClock(const void* actor) const;

  // Retires one actor at the end of a borrowed run: erases its clock
  // from the live table (so a later run reusing the freed Statistics
  // address starts fresh) and folds it into the retired-actor peak,
  // which NowMicros and SynchronizeClocks still see. Returns the retired
  // clock — the actor's modeled completion time.
  uint64_t RetireActor(const void* actor);

  // Async requests ever serviced (after coalescing).
  uint64_t async_reads() const;

  // Timed writes serviced through Write().
  uint64_t disk_writes() const;

  const SimulatedDiskArray& disks() const { return disks_; }
  const Options& options() const { return options_; }

 private:
  // One async request's identity: (issuing cache, file, page).
  struct RequestKey {
    const void* owner = nullptr;
    const PagedFile* file = nullptr;
    PageId id = kInvalidPageId;

    friend bool operator==(const RequestKey&, const RequestKey&) = default;
  };

  struct RequestKeyHash {
    size_t operator()(const RequestKey& k) const {
      const size_t h1 = std::hash<const void*>{}(k.owner);
      const size_t h2 = PageKeyHash{}(PageKey{k.file, k.id});
      return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
    }
  };

  // The actor's current clock (>= floor). Caller holds `mu_`.
  uint64_t ActorClockLocked(const void* actor) const;

  // Raises the actor's clock to at least `to`. Caller holds `mu_`.
  void AdvanceActorLocked(const void* actor, uint64_t to);

  // Moves the `stats` actor's clock to `completion` when that is later,
  // charging the difference as stall. Caller holds `mu_`.
  void StallUntilLocked(Statistics* stats, uint64_t completion);

  // Consumes the kept completion of `key`, if any, stalling the `stats`
  // actor until it; false when there is none. Caller holds `mu_`.
  bool ConsumeCompletionLocked(const RequestKey& key, Statistics* stats);

  Options options_;
  SimulatedDiskArray disks_;

  mutable std::mutex mu_;
  // Merged clock of synchronized (completed) regions; every actor clock
  // is implicitly >= the floor.
  uint64_t floor_micros_ = 0;
  // Max clock over actors retired since the last synchronization:
  // completed borrowed runs stay visible to NowMicros/SynchronizeClocks
  // without raising the floor fresh actors start at.
  uint64_t retired_peak_micros_ = 0;
  std::unordered_map<const void*, uint64_t> actor_clocks_;
  uint64_t async_reads_ = 0;
  uint64_t disk_writes_ = 0;
  // Completions of serviced async requests awaiting their first consumer
  // touch (the coalescing set).
  std::unordered_map<RequestKey, uint64_t, RequestKeyHash> completed_;
};

}  // namespace rsj

#endif  // RSJ_IO_IO_SCHEDULER_H_
