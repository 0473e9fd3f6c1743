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
        threads == 1 ? size_t{1} : kSharedPoolShards});
    pool_ = owned_pool_.get();
    if (io_ != nullptr) pool_->AttachIoScheduler(io_);
  }
  if (tasks_ == nullptr) {
    owned_tasks_ = std::make_unique<TaskPool>(
        TaskPool::Options{threads - 1, exec.tracer});
    tasks_ = owned_tasks_.get();
  }
  if (exec.prefetch_ahead > 0) {
    prefetcher_ = std::make_unique<Prefetcher>(
        pool_, Prefetcher::Options{exec.prefetch_ahead});
  }
}

}  // namespace rsj
