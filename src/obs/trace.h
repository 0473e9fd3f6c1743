// Run-wide span tracing — the low-overhead instrumentation layer every
// subsystem emits into.
//
// The serving engine runs many concurrent sessions over one modeled disk
// array; a flat Statistics dump cannot answer "which phase stalled this
// query". The tracer records SPANS — named intervals with both a
// wall-clock range (when the work physically ran on this machine) and a
// MODELED range (where it sat on the actor's virtual I/O clock,
// io/io_scheduler.h) — so a single trace shows physical scheduling and
// modeled overlap side by side.
//
// Design constraints, in order:
//   * Disabled tracing must cost nearly nothing: every span site holds a
//     TraceRecorder* that is null (or disabled) by default, and an inert
//     TraceSpan is a pointer check. The concurrent-queries bench asserts
//     the <2% overhead budget.
//   * Emission must be safe from any thread (executor workers, pool
//     threads, session drivers) without a global hot lock: each thread
//     gets its own bounded buffer with its own mutex, lazily registered
//     through a thread-local cache. Spans are coarse (tasks, batches,
//     phases — not per-rectangle), so a per-thread mutex is cheap and
//     keeps the structure trivially TSan-clean.
//   * Overflow must drop, not crash and not grow: a full thread buffer
//     counts the event into `dropped()` and moves on (drop-newest — the
//     front of a run is usually the interesting part).
//
// Event taxonomy (docs/OBSERVABILITY.md has the full table):
//   * phase 'X' — a complete span [ts, ts+dur] with optional modeled
//     range and one optional integer argument;
//   * phase 'C' — a counter sample (governor ledger bytes, resident
//     budget occupancy), keyed by (pid, name);
//   * phase 'i' — an instant event (prefetch issue, session shed).
// `pid` groups events into Chrome-trace process tracks: pid 0 is the
// engine/run itself, each query session gets its own pid. `tid` is the
// recorder-assigned id of the emitting thread.
//
// Export with obs/chrome_trace.h (chrome://tracing / Perfetto JSON).

#ifndef RSJ_OBS_TRACE_H_
#define RSJ_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rsj {

struct TraceOptions {
  // Master switch; a disabled recorder rejects every event with one
  // relaxed atomic load (and can be flipped at runtime).
  bool enabled = true;

  // Sampling period of the HIGH-FREQUENCY span sites (per-task, per-chunk,
  // per-block spans, which pass sampled=true): each thread records one of
  // every `sample_period` such spans. Structural spans (phases, batches,
  // queries) are always recorded. Must be >= 1.
  uint32_t sample_period = 1;

  // Events kept per thread buffer; the overflow is counted into
  // dropped(), never reallocated.
  size_t ring_capacity = 16384;
};

// One recorded event. Category/name/arg_name must be string literals (or
// otherwise outlive the recorder) — events are PODs, nothing is copied.
struct TraceEvent {
  const char* category = "";
  const char* name = "";
  char phase = 'X';  // 'X' complete span, 'C' counter, 'i' instant
  uint32_t pid = 0;  // 0 = the engine/run; per-query sessions get their own
  uint32_t tid = 0;  // recorder-assigned thread id
  uint64_t ts_micros = 0;   // wall, relative to the recorder's epoch
  uint64_t dur_micros = 0;  // wall ('X' only)
  // The span's range on the emitting actor's modeled I/O clock
  // (io/io_scheduler.h); 0/0 when the site has no modeled clock.
  uint64_t modeled_start_micros = 0;
  uint64_t modeled_end_micros = 0;
  // One optional integer argument ('X': payload; 'C': the counter value).
  const char* arg_name = nullptr;
  uint64_t arg_value = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceOptions& options = TraceOptions{});
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Wall micros since this recorder's construction (steady clock).
  uint64_t NowWallMicros() const;

  // Names the calling thread's track in the export ("pool-worker-2",
  // "driver-q3", ...). Last call wins.
  void SetThreadName(const std::string& name);

  // Names a process track ("q0: A.r|x|A.s"); pid 0 defaults to "engine".
  void SetProcessName(uint32_t pid, const std::string& name);

  // Records one event into the calling thread's buffer (drop-newest past
  // ring_capacity). No-op when disabled.
  void Emit(const TraceEvent& event);

  // Convenience emitters.
  void Counter(const char* name, uint32_t pid, uint64_t value);
  void Instant(const char* category, const char* name, uint32_t pid);

  // The calling thread's sampling decision for one high-frequency span:
  // true once every options.sample_period calls (per thread).
  bool Sample();

  // Events dropped on overflow, across all threads.
  uint64_t dropped() const;

  // Events currently recorded, across all threads.
  uint64_t recorded() const;

  // Copies every thread's events out (unsorted across threads; per-thread
  // order is emission order). Safe concurrently with emission.
  std::vector<TraceEvent> Snapshot() const;

  // tid -> thread name (registration order); unnamed threads get
  // "thread-<tid>".
  std::vector<std::pair<uint32_t, std::string>> ThreadNames() const;
  // pid -> process name, as set via SetProcessName.
  std::vector<std::pair<uint32_t, std::string>> ProcessNames() const;

  const TraceOptions& options() const { return options_; }

 private:
  struct ThreadBuffer {
    std::mutex mu;
    uint32_t tid = 0;
    std::string name;
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
    uint64_t sample_counter = 0;
  };

  // The calling thread's buffer, registered on first use (thread-local
  // cache keyed by the recorder's globally unique generation, so a stale
  // cache entry from a destroyed recorder can never be dereferenced).
  ThreadBuffer* LocalBuffer();

  const TraceOptions options_;
  const uint64_t generation_;  // globally unique per recorder instance
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_;

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::map<std::thread::id, ThreadBuffer*> by_thread_;
  std::map<uint32_t, std::string> process_names_;
  uint32_t next_tid_ = 1;
};

// RAII complete-span ('X') emitter. Inert (every method a no-op) when the
// recorder is null, disabled, or the sampling decision said skip — so a
// span site is one pointer/atomic check when tracing is off.
class TraceSpan {
 public:
  TraceSpan() = default;

  // `sampled` marks a high-frequency site subject to
  // TraceOptions::sample_period; structural spans pass false.
  TraceSpan(TraceRecorder* recorder, const char* category, const char* name,
            uint32_t pid = 0, bool sampled = false) {
    if (recorder == nullptr || !recorder->enabled()) return;
    if (sampled && !recorder->Sample()) return;
    recorder_ = recorder;
    event_.category = category;
    event_.name = name;
    event_.pid = pid;
    event_.ts_micros = recorder->NowWallMicros();
  }

  ~TraceSpan() {
    if (recorder_ == nullptr) return;
    event_.dur_micros = recorder_->NowWallMicros() - event_.ts_micros;
    recorder_->Emit(event_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // True when this span will be recorded (use to skip computing inputs).
  bool active() const { return recorder_ != nullptr; }

  // The span's range on the actor's modeled clock.
  void set_modeled_range(uint64_t start_micros, uint64_t end_micros) {
    event_.modeled_start_micros = start_micros;
    event_.modeled_end_micros = end_micros;
  }

  // One integer payload (`name` must be a string literal).
  void set_arg(const char* name, uint64_t value) {
    event_.arg_name = name;
    event_.arg_value = value;
  }

 private:
  TraceRecorder* recorder_ = nullptr;
  TraceEvent event_;
};

}  // namespace rsj

#endif  // RSJ_OBS_TRACE_H_
