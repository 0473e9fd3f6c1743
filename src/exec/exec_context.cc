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
                         const ParallelExecutorOptions& exec)
    : owned_pool_(std::make_unique<BufferPool>(BufferPool::Options{
          join.buffer_bytes, page_size,
          exec.num_threads <= 1 ? 1 : kSharedPoolShards})),
      pool_(owned_pool_.get()),
      io_(exec.io_scheduler),
      governor_(exec.memory_governor),
      arena_(exec.chunk_arena != nullptr ? *exec.chunk_arena
                                         : RunArena(exec)),
      owned_tasks_(std::make_unique<TaskPool>(TaskPool::Options{
          exec.num_threads <= 1 ? 0 : exec.num_threads - 1, exec.tracer})),
      tasks_(owned_tasks_.get()),
      tracer_(exec.tracer),
      trace_pid_(0),
      window_(exec.io_scheduler, /*owned=*/true) {
  if (io_ != nullptr) pool_->AttachIoScheduler(io_);
  if (exec.prefetch) prefetcher_ = std::make_unique<Prefetcher>(pool_);
}

ExecContext::ExecContext(const Borrowed& shared,
                         const ParallelExecutorOptions& exec)
    : pool_(shared.pool),
      io_(shared.io),
      governor_(shared.governor),
      arena_(RunArena(exec)),
      tasks_(shared.tasks),
      tracer_(shared.tracer),
      trace_pid_(shared.trace_pid),
      window_(shared.io, /*owned=*/false) {
  RSJ_CHECK_MSG(pool_ != nullptr && tasks_ != nullptr,
                "a borrowed context needs a pool and a task pool");
  if (exec.prefetch) prefetcher_ = std::make_unique<Prefetcher>(pool_);
}

}  // namespace rsj
