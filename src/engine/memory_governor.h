// Run-wide memory governor and the resident-budget admission gauge.
//
// PR 5's `ResidentBudget` bounded one run's resident result chunks; a
// serving engine needs that discipline ACROSS runs: many concurrent
// sessions draw result chunks, chain frontiers and cache frames from
// one machine, so the capacity ledger must be shared. This module
// generalizes the budget into a two-level scheme:
//
//   * `MemoryGovernor` — the run-wide byte ledger. The metered categories
//     of transient memory (result chunks, chain frontier tuples,
//     whole-session reservations, raster signatures, shard-build staging)
//     lease bytes from one shared budget; the governor tracks live and
//     peak bytes per category and in total. `TryLease` is
//     admission-controlled (fails past the budget — the session admission
//     path); `Charge` is unconditional accounting for quantities something
//     else already bounds (a chain's chunk capacity). Buffer-pool frames
//     and cached node decodes are not charged: they are bounded by their
//     own capacities (the pool's bytes, the node cache's node count), and
//     the `cache_frames` category reads 0.
//   * `ResidentBudget` — the per-run admission gauge the spill sinks and
//     executors already used, now optionally *governed*: every unit it
//     admits is mirrored as a byte lease in the governor's category
//     gauge, and its destructor returns the live units — so a run's
//     residency is visible engine-wide exactly while the run holds it.
//     A budget of `kUnbounded` degrades to a pure measuring gauge: it
//     admits everything and reports the high-water mark, which is how
//     materialized (non-spilling) runs now measure
//     `result_peak_chunks_resident` instead of computing it from final
//     counts.
//
// Ownership & threading contracts:
//   * Both classes are thread-safe (lock-free atomics); one governor is
//     shared by every session of an engine and must outlive every budget
//     and executor holding a pointer to it.
//   * A governed ResidentBudget releases its live leases on destruction:
//     the lease lifetime is the run (residency while the run holds the
//     chunks), not the result's.
//   * Admission (`TryAdmit`/`TryLease`) never blocks: callers that are
//     refused spill, queue, or shed — the governor only says no.

#ifndef RSJ_ENGINE_MEMORY_GOVERNOR_H_
#define RSJ_ENGINE_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "obs/trace.h"

namespace rsj {

// The transient-memory categories the governor meters. Categories are
// gauges of one shared byte budget, not separate budgets: a run-away
// result path and a run-away frontier dip into the same pool.
enum class MemoryCategory : unsigned {
  kResultChunks = 0,         // completed result/tuple chunks held resident
  kFrontierTuples = 1,       // chain frontier tuples being extended
  kCacheFrames = 2,          // reserved; nothing charges it (see above)
  kSessionReservations = 3,  // whole-session working-set reservations
  kRasterSignatures = 4,     // raster-interval refinement signatures
  kShardBuild = 5,           // shard-build staging buffers (src/shard/)
};

inline constexpr unsigned kMemoryCategoryCount = 6;

const char* MemoryCategoryName(MemoryCategory category);

class MemoryGovernor {
 public:
  struct Options {
    // Shared byte budget leases are admitted against; 0 = unlimited
    // (the governor then only accounts — every TryLease succeeds).
    uint64_t budget_bytes = 0;
  };

  MemoryGovernor() : MemoryGovernor(Options{}) {}
  explicit MemoryGovernor(const Options& options) : budget_(options.budget_bytes) {}

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  // Admission-controlled lease: false when the budget cannot cover
  // `bytes` more live bytes (nothing is charged then). bytes == 0
  // always succeeds.
  bool TryLease(MemoryCategory category, uint64_t bytes);

  // Returns a lease (or discharges an unconditional charge).
  void Release(MemoryCategory category, uint64_t bytes);

  // Unconditional accounting for quantities bounded elsewhere (a chain's
  // chunk capacity, cache capacity): never fails, may push live bytes past
  // the budget. A charge that leaves live bytes above a nonzero budget
  // counts one overshoot (overshoots(), overshoot_peak_bytes()).
  void Charge(MemoryCategory category, uint64_t bytes);

  // Attaches a span recorder (obs/trace.h): every lease/charge/release
  // samples the category's live bytes and the total ledger as Chrome
  // counter tracks on pid 0. nullptr detaches. Not owned.
  void AttachTracer(TraceRecorder* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  uint64_t budget_bytes() const { return budget_; }
  uint64_t leased_bytes() const {
    return total_live_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return total_peak_.load(std::memory_order_relaxed);
  }
  uint64_t category_live(MemoryCategory category) const {
    return gauges_[static_cast<unsigned>(category)].live.load(
        std::memory_order_relaxed);
  }
  uint64_t category_peak(MemoryCategory category) const {
    return gauges_[static_cast<unsigned>(category)].peak.load(
        std::memory_order_relaxed);
  }
  // Charges that left live bytes above a nonzero budget, and the largest
  // excess of live bytes over the budget such a charge reached.
  uint64_t overshoots() const {
    return overshoots_.load(std::memory_order_relaxed);
  }
  uint64_t overshoot_peak_bytes() const {
    return overshoot_peak_.load(std::memory_order_relaxed);
  }

 private:
  struct Gauge {
    std::atomic<uint64_t> live{0};
    std::atomic<uint64_t> peak{0};
  };

  static void Raise(std::atomic<uint64_t>* peak, uint64_t now) {
    uint64_t seen = peak->load(std::memory_order_relaxed);
    while (now > seen &&
           !peak->compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }

  void Account(MemoryCategory category, uint64_t bytes, uint64_t total_now);
  void EmitCounters(MemoryCategory category);

  const uint64_t budget_;
  std::atomic<uint64_t> total_live_{0};
  std::atomic<uint64_t> total_peak_{0};
  std::atomic<uint64_t> overshoots_{0};
  std::atomic<uint64_t> overshoot_peak_{0};
  Gauge gauges_[kMemoryCategoryCount];
  std::atomic<TraceRecorder*> tracer_{nullptr};
};

// Shared admission gauge of one run: completed chunks (or tuple chunks)
// held resident across all of the run's sinks, capped at a configured
// budget, with the high-water mark reported as
// `Statistics::result_peak_chunks_resident`. Thread-safe; one instance
// per run. Optionally governed: admitted units mirror into a
// MemoryGovernor category as byte leases, released on destruction.
class ResidentBudget {
 public:
  // Budget value that admits everything: the budget degrades to a pure
  // measuring gauge (materialized runs use this to MEASURE their
  // resident peak instead of computing it from final counts).
  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  explicit ResidentBudget(size_t budget_chunks)
      : ResidentBudget(budget_chunks, nullptr, MemoryCategory::kResultChunks,
                       0) {}

  // Governed form: every admitted unit leases `unit_bytes` from
  // `governor` (admission fails when the governor refuses, even under
  // the local cap), and the destructor releases the live leases.
  // governor == nullptr degrades to the standalone form.
  ResidentBudget(size_t budget_chunks, MemoryGovernor* governor,
                 MemoryCategory category, uint64_t unit_bytes)
      : budget_(budget_chunks),
        governor_(governor),
        category_(category),
        unit_bytes_(unit_bytes) {}

  // Attaches a span recorder: every occupancy change samples the live
  // chunk count as a "resident_chunks" Chrome counter track on `pid`
  // (the owning query's). nullptr detaches. Not owned.
  void AttachTracer(TraceRecorder* tracer, uint32_t pid) {
    trace_pid_ = pid;
    tracer_.store(tracer, std::memory_order_release);
  }

  ~ResidentBudget() {
    if (governor_ != nullptr) {
      governor_->Release(category_,
                         live_.load(std::memory_order_relaxed) * unit_bytes_);
    }
  }

  ResidentBudget(const ResidentBudget&) = delete;
  ResidentBudget& operator=(const ResidentBudget&) = delete;

  // Admits one chunk into residency if the budget (and the governor,
  // when governed) allows; false means the caller must spill the chunk
  // instead.
  bool TryAdmit() {
    const uint64_t now = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now > budget_) {
      live_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    if (governor_ != nullptr && !governor_->TryLease(category_, unit_bytes_)) {
      live_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    uint64_t seen = peak_.load(std::memory_order_relaxed);
    while (now > seen && !peak_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
    EmitGauge();
    return true;
  }

  // Unconditional admission for measuring gauges: counts the unit and
  // charges the governor without admission control. Callers with no
  // spill path (materialized sinks) report through this — any budget
  // overshoot is visible in the governor's peaks instead of being
  // silently unaccounted.
  void Admit() {
    const uint64_t now = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t seen = peak_.load(std::memory_order_relaxed);
    while (now > seen && !peak_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
    if (governor_ != nullptr) governor_->Charge(category_, unit_bytes_);
    EmitGauge();
  }

  // Returns admitted units early (a consumer freed residency before the
  // run ended); the destructor releases whatever is still live.
  void Release(uint64_t units = 1) {
    live_.fetch_sub(units, std::memory_order_relaxed);
    if (governor_ != nullptr) {
      governor_->Release(category_, units * unit_bytes_);
    }
    EmitGauge();
  }

  size_t budget() const { return budget_; }
  uint64_t live() const { return live_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void EmitGauge() {
    TraceRecorder* const tracer = tracer_.load(std::memory_order_acquire);
    if (tracer == nullptr || !tracer->enabled()) return;
    tracer->Counter("resident_chunks", trace_pid_,
                    live_.load(std::memory_order_relaxed));
  }

  const size_t budget_;
  MemoryGovernor* const governor_;
  const MemoryCategory category_;
  const uint64_t unit_bytes_;
  std::atomic<uint64_t> live_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<TraceRecorder*> tracer_{nullptr};
  uint32_t trace_pid_ = 0;
};

}  // namespace rsj

#endif  // RSJ_ENGINE_MEMORY_GOVERNOR_H_
