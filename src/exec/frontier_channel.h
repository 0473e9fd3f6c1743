// Bounded chunk channel between the phases of the streaming multiway
// pipeline (exec/multiway_executor.h).
//
// A chain join's probe phase k produces partial tuples that phase k+1
// consumes. The materialized formulation barriers on the whole frontier
// between phases, so peak memory scales with the largest intermediate
// result. This channel is the streaming alternative: producers push
// completed FrontierChunks (flat, fixed-tuple-capacity blocks) as they
// fill, consumers pop them as they arrive, and a bound on the queue depth
// gives backpressure — a fast producer blocks until the slow consumer
// catches up, which is exactly what caps the frontier's peak memory at
// O(chunks in flight × chunk capacity).
//
// Closure is producer-counted: every producer thread calls
// RetireProducer() when it has flushed its last chunk; Pop() returns
// false once the channel is drained and all producers retired, which
// cascades shutdown down the pipeline. The phase topology is a DAG
// (phase k only ever pushes to phase k+1), so blocking pushes cannot
// deadlock: the dedicated downstream consumers never push upstream.
//
// Ownership & threading contracts:
//   * The channel is thread-safe: any number of producer and consumer
//     threads may call Push/Pop concurrently; accessors are snapshots.
//   * The executor that builds the pipeline owns the channel and must
//     keep it alive until every producer has retired and every consumer
//     has seen Pop() == false — in practice, until the phase teams are
//     joined.
//   * Exactly `producers` threads must each call RetireProducer() once;
//     pushing after retiring (or by an unregistered thread) is a
//     contract violation.
//   * A popped FrontierChunk is owned by the consumer; its flat storage
//     is one allocation that moves through the channel without copying.

#ifndef RSJ_EXEC_FRONTIER_CHANNEL_H_
#define RSJ_EXEC_FRONTIER_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace rsj {

// A flat block of same-arity partial tuples: tuple t occupies
// flat[t*arity, (t+1)*arity). Flat storage keeps a chunk one allocation
// and its memory footprint exactly proportional to its tuple count.
struct FrontierChunk {
  uint32_t arity = 0;
  std::vector<uint32_t> flat;

  size_t tuple_count() const {
    return arity == 0 ? 0 : flat.size() / arity;
  }
  const uint32_t* tuple(size_t t) const { return flat.data() + t * arity; }
};

class FrontierChannel {
 public:
  // `bound`: chunks buffered before Push blocks; `producers`: threads
  // that will call RetireProducer exactly once each. Both must be >= 1.
  FrontierChannel(size_t bound, size_t producers);

  FrontierChannel(const FrontierChannel&) = delete;
  FrontierChannel& operator=(const FrontierChannel&) = delete;

  // Blocks while the channel holds `bound` chunks (backpressure), then
  // enqueues. Only registered, un-retired producers may push.
  void Push(FrontierChunk chunk);

  // Dequeues the oldest chunk; blocks while the channel is empty and
  // producers remain. Returns false when drained and all producers
  // retired — the consumer's signal to flush and shut down.
  bool Pop(FrontierChunk* out);

  // Marks one producer done. The last retirement wakes blocked poppers.
  void RetireProducer();

  size_t bound() const { return bound_; }
  size_t size() const;
  size_t open_producers() const;

  // Chunks ever pushed (pipeline telemetry: "chunks scheduled").
  uint64_t chunks_pushed() const;

  // High-water mark of the queue depth (<= bound by construction).
  size_t peak_size() const;

 private:
  const size_t bound_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<FrontierChunk> queue_;
  size_t open_producers_;
  uint64_t chunks_pushed_ = 0;
  size_t peak_size_ = 0;
};

}  // namespace rsj

#endif  // RSJ_EXEC_FRONTIER_CHANNEL_H_
