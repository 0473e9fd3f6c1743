#include "exec/exec_context.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/parallel_executor.h"
#include "io/io_scheduler.h"

namespace rsj {

IoWindow::IoWindow(IoScheduler* io, bool owned)
    : io_(io),
      owned_(owned),
      clock_at_open_(io != nullptr ? io->NowMicros() : 0),
      floor_at_open_(io != nullptr ? io->FloorMicros() : 0),
      retired_end_(floor_at_open_) {}

void IoWindow::Retire(const Statistics* actor) {
  if (io_ == nullptr) return;
  retired_end_ = std::max(retired_end_, io_->RetireActor(actor));
}

uint64_t IoWindow::Close() {
  if (io_ == nullptr) return 0;
  if (!owned_) return retired_end_ - floor_at_open_;
  // Concurrent actors merge by max: CPU in parallel, I/O overlapped.
  return io_->SynchronizeClocks() - clock_at_open_;
}

namespace {

ChunkArena RunArena(const ParallelExecutorOptions& exec) {
  return ChunkArena(ChunkArena::Options{exec.chunk_capacity,
                                        /*max_free_chunks=*/1024});
}

// Frames each of kSharedPoolShards shards must get before workers share a
// sharded pool rather than one LRU. Fewer frames a shard evict pages one
// LRU keeps: 2-thread SJ4 runs on D at scale 0.1 (4 KiB pages, median of
// 7) read 233 pages over 8 shards against 208 over one LRU at 32 frames (4
// a shard), 197 against 193 at 64 (8 a shard) and 190 both at 128.
constexpr size_t kMinFramesPerShard = 8;

size_t PoolShards(unsigned threads, uint64_t frames) {
  return threads > 1 && frames >= kSharedPoolShards * kMinFramesPerShard
             ? kSharedPoolShards
             : 1;
}

}  // namespace

ExecContext::ExecContext(const JoinOptions& join, uint32_t page_size,
                         const ParallelExecutorOptions& exec,
                         const LentResources& lent)
    : pool_(lent.pool),
      io_(exec.io_scheduler),
      governor_(exec.memory_governor),
      arena_(exec.chunk_arena != nullptr ? *exec.chunk_arena
                                         : RunArena(exec)),
      tasks_(lent.tasks),
      tracer_(exec.tracer),
      trace_pid_(lent.trace_pid),
      window_(exec.io_scheduler, /*owned=*/lent.pool == nullptr) {
  const unsigned threads = std::max(1u, exec.num_threads);
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<BufferPool>(BufferPool::Options{
        join.buffer_bytes, page_size,
        PoolShards(threads, join.buffer_bytes / page_size)});
    pool_ = owned_pool_.get();
    if (io_ != nullptr) pool_->AttachIoScheduler(io_);
  }
  if (tasks_ == nullptr) {
    owned_tasks_ = std::make_unique<TaskPool>(
        TaskPool::Options{threads - 1, exec.tracer});
    tasks_ = owned_tasks_.get();
  }
  if (exec.prefetch_ahead > 0) {
    // Prefetched pages land as evictable frames, so a schedule reaching as
    // far ahead as the pool has frames evicts its head before the join
    // consumes it: SJ4 on JoinCounterPinTest's 16-frame fixture over 2
    // disks read 284 pages and modeled 4,055,000 us 32 ahead, 211 and
    // 3,135,000 us 16 ahead, and 206 and 3,100,000 us 15 ahead.
    const size_t frames = pool_->frame_capacity();
    prefetcher_ = std::make_unique<Prefetcher>(
        pool_, Prefetcher::Options{std::min(exec.prefetch_ahead,
                                            frames > 0 ? frames - 1 : 0)});
  }
}

void ExecContext::ChargeUnconsumedPrefetches(Statistics* stats) const {
  if (owned_pool_ != nullptr) {
    stats->prefetch_wasted += owned_pool_->prefetched_unconsumed();
  }
}

}  // namespace rsj
