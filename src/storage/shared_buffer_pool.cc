#include "storage/shared_buffer_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace rsj {

SharedBufferPool::SharedBufferPool(const Options& options)
    : frame_capacity_(options.capacity_bytes / std::max<uint32_t>(
                                                   1, options.page_size)) {
  // Silently constructing zero-frame shards hides configuration bugs (a
  // forgotten page size turns the pool into a 100%-miss cache); fail fast.
  RSJ_CHECK_MSG(options.page_size != 0, "shared pool needs a page size");
  RSJ_CHECK_MSG(options.shard_count != 0, "shared pool needs >= 1 shard");
  const size_t shard_count = options.shard_count;
  // Distribute the frame budget round-robin so small budgets still spread
  // over several shards (a shard may end up with zero frames; pinned pages
  // live outside the budget either way).
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    const size_t frames =
        frame_capacity_ / shard_count + (i < frame_capacity_ % shard_count);
    shards_.push_back(std::make_unique<Shard>(BufferPool::Options{
        frames * options.page_size, options.page_size}));
  }
}

bool SharedBufferPool::Read(const PagedFile& file, PageId id,
                            Statistics* stats) {
  Shard& shard = ShardFor(PageKey{&file, id});
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pool.Read(file, id, stats);
}

FetchedNode SharedBufferPool::Fetch(const PagedFile& file, PageId id,
                                   Statistics* stats) {
  Shard& shard = ShardFor(PageKey{&file, id});
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pool.Fetch(file, id, stats);
}

void SharedBufferPool::Pin(const PagedFile& file, PageId id,
                           Statistics* stats) {
  Shard& shard = ShardFor(PageKey{&file, id});
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.pool.Pin(file, id, stats);
}

void SharedBufferPool::Unpin(const PagedFile& file, PageId id,
                             Statistics* stats) {
  Shard& shard = ShardFor(PageKey{&file, id});
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.pool.Unpin(file, id, stats);
}

bool SharedBufferPool::Prefetch(const PagedFile& file, PageId id,
                                Statistics* stats) {
  Shard& shard = ShardFor(PageKey{&file, id});
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pool.Prefetch(file, id, stats);
}

void SharedBufferPool::AttachIoScheduler(IoScheduler* io) {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->pool.AttachIoScheduler(io);
  }
}

bool SharedBufferPool::Contains(const PagedFile& file, PageId id) const {
  const Shard& shard = ShardFor(PageKey{&file, id});
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pool.Contains(file, id);
}

void SharedBufferPool::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->pool.Clear();
  }
}

size_t SharedBufferPool::frames_in_use() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->pool.frames_in_use();
  }
  return total;
}

size_t SharedBufferPool::pinned_pages() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->pool.pinned_pages();
  }
  return total;
}

size_t SharedBufferPool::prefetched_unconsumed() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->pool.prefetched_unconsumed();
  }
  return total;
}

}  // namespace rsj
