#include "exec/exec_context.h"

#include <algorithm>

#include "exec/parallel_executor.h"
#include "exec/task_scheduler.h"
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
    : owned_pool_(std::make_unique<SharedBufferPool>(SharedBufferPool::Options{
          join.buffer_bytes, page_size})),
      owned_nodes_(std::make_unique<NodeCache>(owned_pool_.get(),
                                               NodeCache::Options{})),
      pool_(owned_pool_.get()),
      nodes_(owned_nodes_.get()),
      io_(exec.io_scheduler),
      governor_(exec.memory_governor),
      arena_(exec.chunk_arena != nullptr ? *exec.chunk_arena
                                         : RunArena(exec)),
      tracer_(exec.tracer),
      trace_pid_(0),
      window_(exec.io_scheduler, /*owned=*/true) {
  if (io_ != nullptr) pool_->AttachIoScheduler(io_);
  if (exec.prefetch) prefetcher_ = std::make_unique<Prefetcher>(pool_);
}

ExecContext::ExecContext(const Borrowed& shared,
                         const ParallelExecutorOptions& exec)
    : pool_(shared.pool),
      nodes_(shared.nodes),
      io_(shared.io),
      governor_(shared.governor),
      arena_(RunArena(exec)),
      task_runner_(shared.task_runner),
      tracer_(shared.tracer),
      trace_pid_(shared.trace_pid),
      window_(shared.io, /*owned=*/false) {
  if (exec.prefetch) prefetcher_ = std::make_unique<Prefetcher>(pool_);
}

std::vector<uint64_t> ExecContext::RunTasks(
    unsigned workers, size_t num_tasks,
    const std::function<void(unsigned worker, size_t task)>& fn) const {
  if (task_runner_) return task_runner_(workers, num_tasks, fn);
  TaskScheduler scheduler(workers, num_tasks);
  return scheduler.Run(fn);
}

}  // namespace rsj
