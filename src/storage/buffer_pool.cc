#include "storage/buffer_pool.h"

#include "io/io_scheduler.h"

namespace rsj {

BufferPool::BufferPool(const Options& options, Statistics* stats)
    : frame_capacity_(options.page_size == 0
                          ? 0
                          : options.capacity_bytes / options.page_size),
      page_size_(options.page_size),
      stats_(stats) {
  RSJ_CHECK(stats != nullptr);
}

void BufferPool::ConsumePrefetchedFrame(const PageKey& key, Frame* frame,
                                        Statistics* stats) {
  frame->prefetched = false;
  --prefetched_unconsumed_;
  ++stats->prefetch_hits;
  if (io_ != nullptr) io_->ConsumePrefetched(this, *key.file, key.id, stats);
}

bool BufferPool::Read(const PagedFile& file, PageId id, Statistics* stats) {
  if (io_ != nullptr) io_->ChargeCpuPerRead(stats);
  const PageKey key{&file, id};
  if (pinned_.contains(key)) {
    ++stats->buffer_hits;
    return true;
  }
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    ++stats->buffer_hits;
    if (it->second.prefetched) {
      ConsumePrefetchedFrame(key, &it->second, stats);
    }
    order_.splice(order_.begin(), order_, it->second.position);
    return true;
  }
  if (io_ != nullptr) io_->BlockingRead(this, file, id, page_size_, stats);
  ++stats->disk_reads;
  InsertNewest(key, stats);
  return false;
}

bool BufferPool::Prefetch(const PagedFile& file, PageId id,
                          Statistics* stats) {
  if (frame_capacity_ == 0) return false;  // nowhere to land
  const PageKey key{&file, id};
  if (pinned_.contains(key) || frames_.contains(key)) {
    return false;  // resident: duplicate prefetches coalesce
  }
  // The hinting actor's clock stamps the issue time.
  if (io_ != nullptr) io_->SubmitAsync(this, file, id, page_size_, stats);
  ++stats->prefetch_issued;
  ++stats->disk_reads;
  InsertNewest(key, stats, /*prefetched=*/true);
  return true;
}

void BufferPool::Pin(const PagedFile& file, PageId id, Statistics* stats) {
  const PageKey key{&file, id};
  ++stats->pin_count;
  auto pinned_it = pinned_.find(key);
  if (pinned_it != pinned_.end()) {
    ++pinned_it->second;
    return;
  }
  auto frame_it = frames_.find(key);
  if (frame_it != frames_.end()) {
    // Promote from frame to pinned; frees the frame.
    if (frame_it->second.prefetched) {
      ConsumePrefetchedFrame(key, &frame_it->second, stats);
    }
    order_.erase(frame_it->second.position);
    frames_.erase(frame_it);
  } else {
    // Not resident: pinning implies reading the page first.
    if (io_ != nullptr) io_->BlockingRead(this, file, id, page_size_, stats);
    ++stats->disk_reads;
  }
  pinned_.emplace(key, 1u);
}

void BufferPool::Unpin(const PagedFile& file, PageId id, Statistics* stats) {
  const PageKey key{&file, id};
  auto it = pinned_.find(key);
  RSJ_CHECK_MSG(it != pinned_.end(), "Unpin of a page that is not pinned");
  if (--it->second > 0) return;
  pinned_.erase(it);
  // Recently used; keep it cached if the budget allows.
  InsertNewest(key, stats);
}

bool BufferPool::Contains(const PagedFile& file, PageId id) const {
  const PageKey key{&file, id};
  return pinned_.contains(key) || frames_.contains(key);
}

void BufferPool::Clear() {
  RSJ_CHECK_MSG(pinned_.empty(), "Clear() with pinned pages outstanding");
  if (io_ != nullptr) {
    for (const auto& [key, frame] : frames_) {
      if (frame.prefetched) io_->AbandonPrefetched(this, *key.file, key.id);
    }
  }
  order_.clear();
  frames_.clear();
  prefetched_unconsumed_ = 0;
}

void BufferPool::EvictOne(Statistics* stats) {
  const PageKey victim = order_.back();
  auto it = frames_.find(victim);
  RSJ_DCHECK(it != frames_.end());
  if (it->second.prefetched) {
    // An unconsumed prefetched victim is wasted I/O; the scheduler also
    // forgets its completion, so a later miss pays a genuine read.
    --prefetched_unconsumed_;
    ++stats->prefetch_wasted;
    if (io_ != nullptr) io_->AbandonPrefetched(this, *victim.file, victim.id);
  }
  frames_.erase(it);
  order_.pop_back();
  ++stats->buffer_evictions;
}

void BufferPool::InsertNewest(const PageKey& key, Statistics* stats,
                              bool prefetched) {
  if (frame_capacity_ == 0) return;
  while (order_.size() >= frame_capacity_) EvictOne(stats);
  order_.push_front(key);
  frames_[key] = Frame{order_.begin(), prefetched};
  if (prefetched) ++prefetched_unconsumed_;
}

}  // namespace rsj
