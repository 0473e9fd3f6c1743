// Batched result sinks and the chunked zero-copy result path — the
// engine's output representation.
//
// The join engine used to invoke a `std::function` per result pair, which
// put an opaque indirect call in the middle of the hottest loop. A
// `ResultSink` instead accumulates pairs in a staging window and hands
// full windows to a virtual `Consume(span)` — one indirect call per 1024
// pairs instead of one per pair, and the staging store is a plain array
// write the compiler can see through.
//
// The staging window is *re-pointable*: plain sinks stage into a built-in
// array, while `ChunkedSink` points the window directly into a
// `ResultChunk` (a fixed-capacity contiguous pair block recycled through a
// `ChunkArena` free list). A full chunk is handed downstream as-is — the
// pairs are written into their final resting place exactly once, and
// every later hop (worker → merged result → caller) moves chunk pointers,
// never pairs.
//
// Sink implementations:
//   * CountingSink        — counting-only joins (no materialization),
//   * MaterializingSink   — collect the result as a ResultChunkList,
//   * BatchedCallbackSink — stream batches to user code (refinement,
//                           servers).
//
// Sink implementations built on shared infrastructure (e.g. the spilling
// sink, exec/spill_sink.h) follow the same shape: the sink itself stays
// single-owner, everything it shares is thread-safe.
//
// Ownership & threading contracts:
//   * `ResultSink` and every subclass are single-owner: exactly one
//     producer thread calls Add()/Flush(), and result extraction
//     (TakeChunks etc.) happens after that producer is done. Parallel
//     execution gives every worker its own sink and splices the chunk
//     lists afterwards (zero pair copies, see exec/parallel_executor.h).
//   * `ChunkArena` IS thread-safe and copyable (handles share one free
//     list), so one arena can recycle chunks across all workers and
//     across runs; it must outlive every chunk drawn from it only in the
//     sense that releases after the last handle died degrade to plain
//     frees (the shared core is refcounted).
//   * `ResultChunk` / `ResultChunkList` are single-owner values; a chunk
//     handed downstream via ConsumeChunk transfers ownership, and spans
//     into a chunk stay valid for the chunk's lifetime.

#ifndef RSJ_EXEC_RESULT_SINK_H_
#define RSJ_EXEC_RESULT_SINK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/memory_governor.h"

namespace rsj {

// One result pair: (object id in R, object id in S).
struct ResultPair {
  uint32_t r;
  uint32_t s;

  friend bool operator==(const ResultPair&, const ResultPair&) = default;
};

// A fixed-capacity contiguous block of result pairs. Chunks are the unit
// of downstream work: producers fill one completely (or finally,
// partially), consumers iterate `pairs()`. Storage never reallocates, so
// spans into a chunk stay valid for the chunk's lifetime.
class ResultChunk {
 public:
  explicit ResultChunk(size_t capacity)
      : storage_(new ResultPair[capacity]), capacity_(capacity) {}

  ResultChunk(const ResultChunk&) = delete;
  ResultChunk& operator=(const ResultChunk&) = delete;

  std::span<const ResultPair> pairs() const {
    return {storage_.get(), size_};
  }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  // Producer-side access: the writable pair block and the count of pairs
  // actually written (set once, when the chunk is sealed or recycled).
  ResultPair* data() { return storage_.get(); }
  void set_size(size_t n) {
    RSJ_DCHECK(n <= capacity_);
    size_ = n;
  }

 private:
  std::unique_ptr<ResultPair[]> storage_;
  size_t capacity_;
  size_t size_ = 0;
};

namespace internal {

// Shared state of a ChunkArena: the free list plus lifetime accounting.
// shared_ptr-owned so chunks released after their arena handle died are
// still returned (or freed) safely.
struct ChunkArenaCore {
  std::mutex mu;
  std::vector<std::unique_ptr<ResultChunk>> free_list;
  size_t chunk_capacity = 0;
  size_t max_free_chunks = 0;
  uint64_t chunks_allocated = 0;  // lifetime allocations (reuse excluded)
};

}  // namespace internal

// Returns a chunk to its arena's free list (or frees it when the list is
// at capacity). The deleter of ChunkPtr.
struct ChunkReleaser {
  std::shared_ptr<internal::ChunkArenaCore> core;

  void operator()(ResultChunk* chunk) const noexcept {
    if (core != nullptr) {
      std::lock_guard<std::mutex> lock(core->mu);
      if (core->free_list.size() < core->max_free_chunks) {
        chunk->set_size(0);
        core->free_list.emplace_back(chunk);
        return;
      }
    }
    delete chunk;
  }
};

// Owning handle to one chunk; destruction recycles through the arena.
using ChunkPtr = std::unique_ptr<ResultChunk, ChunkReleaser>;

// Thread-safe free-list allocator of equally sized ResultChunks. Copyable
// handle semantics: copies share one free list, so the executor, all its
// worker sinks, and the caller (across runs) recycle the same blocks —
// a steady-state run allocates nothing.
class ChunkArena {
 public:
  struct Options {
    // Pairs per chunk. Also the granularity of downstream handoffs.
    size_t chunk_capacity = 1024;
    // Free chunks kept for reuse; beyond this, releases free memory.
    size_t max_free_chunks = 1024;
  };

  ChunkArena() : ChunkArena(Options{}) {}
  explicit ChunkArena(const Options& options)
      : core_(std::make_shared<internal::ChunkArenaCore>()) {
    RSJ_CHECK_MSG(options.chunk_capacity >= 1,
                  "chunk arena needs chunk_capacity >= 1");
    core_->chunk_capacity = options.chunk_capacity;
    core_->max_free_chunks = options.max_free_chunks;
  }

  // Pops the free list, or allocates when it is empty.
  ChunkPtr Acquire() {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      if (!core_->free_list.empty()) {
        ResultChunk* chunk = core_->free_list.back().release();
        core_->free_list.pop_back();
        return ChunkPtr(chunk, ChunkReleaser{core_});
      }
      ++core_->chunks_allocated;
    }
    return ChunkPtr(new ResultChunk(core_->chunk_capacity),
                    ChunkReleaser{core_});
  }

  size_t chunk_capacity() const { return core_->chunk_capacity; }

  // Chunks ever allocated (lifetime): stable across runs once the working
  // set is warm — the arena-reuse tests assert exactly that.
  uint64_t chunks_allocated() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->chunks_allocated;
  }

  size_t free_chunks() const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->free_list.size();
  }

 private:
  std::shared_ptr<internal::ChunkArenaCore> core_;
};

// An ordered list of result chunks — the materialized form of a join
// result. Merging two lists (`Splice`) moves chunk pointers only; the
// pairs themselves are never copied after the producing worker wrote
// them. Copying out to a flat vector (`CopyPairs`) exists for API edges
// (tests, small examples) and is the only copying operation.
class ResultChunkList {
 public:
  ResultChunkList() = default;
  ResultChunkList(ResultChunkList&&) = default;
  ResultChunkList& operator=(ResultChunkList&&) = default;

  ResultChunkList(const ResultChunkList&) = delete;
  ResultChunkList& operator=(const ResultChunkList&) = delete;

  void Append(ChunkPtr chunk) {
    if (chunk == nullptr || chunk->size() == 0) return;
    total_pairs_ += chunk->size();
    chunks_.push_back(std::move(chunk));
  }

  // Steals every chunk of `other` (pointer moves, zero pair copies).
  void Splice(ResultChunkList&& other) {
    total_pairs_ += other.total_pairs_;
    if (chunks_.empty()) {
      chunks_ = std::move(other.chunks_);
    } else {
      chunks_.reserve(chunks_.size() + other.chunks_.size());
      for (ChunkPtr& chunk : other.chunks_) {
        chunks_.push_back(std::move(chunk));
      }
      other.chunks_.clear();
    }
    other.total_pairs_ = 0;
  }

  size_t chunk_count() const { return chunks_.size(); }
  uint64_t pair_count() const { return total_pairs_; }
  bool empty() const { return total_pairs_ == 0; }

  // Chunk-granular iteration (the intended consumption pattern).
  auto begin() const { return chunks_.begin(); }
  auto end() const { return chunks_.end(); }

  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    for (const ChunkPtr& chunk : chunks_) {
      for (const ResultPair& pair : chunk->pairs()) fn(pair);
    }
  }

  // Flattens into (r, s) pairs — one copy, for API edges only.
  std::vector<std::pair<uint32_t, uint32_t>> CopyPairs() const {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    out.reserve(total_pairs_);
    ForEachPair([&](const ResultPair& p) { out.emplace_back(p.r, p.s); });
    return out;
  }

  void clear() {
    chunks_.clear();
    total_pairs_ = 0;
  }

 private:
  std::vector<ChunkPtr> chunks_;
  uint64_t total_pairs_ = 0;
};

class ResultSink {
 public:
  // Staging batch size of batch-backed sinks; 8 KiB of pairs, small
  // enough to stay cache-warm. Chunk-backed sinks stage at their chunk
  // capacity instead and allocate no batch of their own.
  static constexpr size_t kBatchCapacity = 1024;

  ResultSink() : batch_(new ResultPair[kBatchCapacity]) {
    SetStage(batch_.get(), kBatchCapacity);
  }
  virtual ~ResultSink() = default;

  ResultSink(const ResultSink&) = delete;
  ResultSink& operator=(const ResultSink&) = delete;

  // Appends one pair; drains the staging window to Consume() when it
  // fills.
  void Add(uint32_t r_ref, uint32_t s_ref) {
    *cursor_++ = ResultPair{r_ref, s_ref};
    if (cursor_ == limit_) Drain();
  }

  // Pushes any staged pairs through Consume(). Producers call this once at
  // the end of a run; a sink's totals are only complete after Flush(). A
  // sink with work of its own past the last batch (the chain sink seals
  // its tuple spiller) overrides it and calls this first.
  virtual void Flush() {
    if (cursor_ != base_) Drain();
  }

  // Pairs added so far (staged + consumed).
  uint64_t count() const {
    return consumed_ + static_cast<uint64_t>(cursor_ - base_);
  }

 protected:
  // Subclasses that stage into external memory (chunked sinks) use this
  // tag constructor to skip the batch allocation; they must SetStage()
  // before the first Add().
  struct ExternalStageTag {};
  explicit ResultSink(ExternalStageTag) {}

  // Receives each full (or final partial) staging window exactly once.
  // The span points into the current staging window; an implementation
  // that re-points the window (SetStage) inside Consume takes ownership
  // of the spanned memory — that is the chunked zero-copy handoff.
  virtual void Consume(std::span<const ResultPair> batch) = 0;

  // Points the staging window at external memory (e.g. a fresh chunk).
  // Call from the constructor and from Consume(); never mid-batch.
  void SetStage(ResultPair* base, size_t capacity) {
    RSJ_DCHECK(capacity >= 1);
    base_ = base;
    cursor_ = base;
    limit_ = base + capacity;
  }

 private:
  void Drain() {
    ResultPair* const drained = base_;
    const size_t n = static_cast<size_t>(cursor_ - base_);
    consumed_ += n;
    cursor_ = base_;
    // May SetStage() to a fresh window; `drained` stays valid for the call.
    Consume(std::span<const ResultPair>(drained, n));
  }

  std::unique_ptr<ResultPair[]> batch_;  // null for external-staged sinks
  ResultPair* base_ = nullptr;
  ResultPair* cursor_ = nullptr;
  ResultPair* limit_ = nullptr;
  uint64_t consumed_ = 0;
};

// Discards the pairs; only count() is of interest.
class CountingSink final : public ResultSink {
 protected:
  void Consume(std::span<const ResultPair>) override {}
};

// Stages directly into arena chunks and hands each filled chunk
// downstream zero-copy: the pairs a producer wrote are the pairs the
// consumer reads, with no intermediate copy.
class ChunkedSink : public ResultSink {
 public:
  explicit ChunkedSink(ChunkArena arena)
      : ResultSink(ExternalStageTag{}),
        arena_(std::move(arena)),
        current_(arena_.Acquire()) {
    SetStage(current_->data(), current_->capacity());
  }

  const ChunkArena& arena() const { return arena_; }

 protected:
  // Receives each completed chunk exactly once (ownership transfers).
  virtual void ConsumeChunk(ChunkPtr chunk) = 0;

  void Consume(std::span<const ResultPair> batch) final {
    RSJ_DCHECK(batch.data() == current_->data());
    current_->set_size(batch.size());
    ChunkPtr full = std::move(current_);
    current_ = arena_.Acquire();
    SetStage(current_->data(), current_->capacity());
    ConsumeChunk(std::move(full));
  }

 private:
  ChunkArena arena_;
  ChunkPtr current_;
};

// Collects the full result set as a chunk list. With a caller-provided
// (shared) arena, parallel workers' sinks draw from one recycled block
// pool and the merged result is assembled by chunk splicing alone.
class MaterializingSink final : public ChunkedSink {
 public:
  MaterializingSink() : ChunkedSink(ChunkArena()) {}
  explicit MaterializingSink(ChunkArena arena)
      : ChunkedSink(std::move(arena)) {}

  // Gauged form: every collected chunk is admitted into `gauge` (an
  // unbounded measuring ResidentBudget, possibly governed — see
  // engine/memory_governor.h), so a materialized run MEASURES its
  // resident-chunk high-water mark through the same gauge a spilling run
  // caps itself with, and a shared governor sees the residency while the
  // run holds it. `gauge` is not owned and must outlive the sink.
  MaterializingSink(ChunkArena arena, ResidentBudget* gauge)
      : ChunkedSink(std::move(arena)), gauge_(gauge) {}

  // Flushes and moves the collected chunks out.
  ResultChunkList TakeChunks() {
    Flush();
    return std::move(chunks_);
  }

 protected:
  void ConsumeChunk(ChunkPtr chunk) override {
    if (gauge_ != nullptr) gauge_->Admit();
    chunks_.Append(std::move(chunk));
  }

 private:
  ResidentBudget* gauge_ = nullptr;
  ResultChunkList chunks_;
};

// Streams batches to a user callback.
class BatchedCallbackSink final : public ResultSink {
 public:
  using Callback = std::function<void(std::span<const ResultPair>)>;

  explicit BatchedCallbackSink(Callback callback)
      : callback_(std::move(callback)) {}

 protected:
  void Consume(std::span<const ResultPair> batch) override { callback_(batch); }

 private:
  Callback callback_;
};

}  // namespace rsj

#endif  // RSJ_EXEC_RESULT_SINK_H_
