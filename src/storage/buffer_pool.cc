#include "storage/buffer_pool.h"

#include "io/io_scheduler.h"

namespace rsj {

BufferPool::BufferPool(const Options& options)
    : frame_capacity_(options.page_size == 0
                          ? 0
                          : options.capacity_bytes / options.page_size),
      page_size_(options.page_size) {}

void BufferPool::ConsumePrefetchedFrame(const PageKey& key, Frame* frame,
                                        Statistics* stats) {
  frame->prefetched = false;
  --prefetched_unconsumed_;
  ++stats->prefetch_hits;
  if (io_ != nullptr) io_->ConsumePrefetched(this, *key.file, key.id, stats);
}

BufferPool::Decode* BufferPool::Request(const PagedFile& file, PageId id,
                                        Statistics* stats, bool* hit) {
  if (io_ != nullptr) io_->ChargeCpuPerRead(stats);
  const PageKey key{&file, id};
  *hit = true;
  auto pinned_it = pinned_.find(key);
  if (pinned_it != pinned_.end()) {
    ++stats->buffer_hits;
    return &pinned_it->second.decoded;
  }
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    ++stats->buffer_hits;
    if (it->second.prefetched) {
      ConsumePrefetchedFrame(key, &it->second, stats);
    }
    order_.splice(order_.begin(), order_, it->second.position);
    return &it->second.decoded;
  }
  *hit = false;
  if (io_ != nullptr) io_->BlockingRead(this, file, id, page_size_, stats);
  ++stats->disk_reads;
  Frame* frame = InsertNewest(key, stats);
  return frame != nullptr ? &frame->decoded : nullptr;
}

bool BufferPool::Read(const PagedFile& file, PageId id, Statistics* stats) {
  bool hit = false;
  Request(file, id, stats, &hit);
  return hit;
}

FetchedNode BufferPool::Fetch(const PagedFile& file, PageId id,
                              Statistics* stats) {
  FetchedNode fetched;
  Decode* slot = Request(file, id, stats, &fetched.page_hit);
  if (slot != nullptr && *slot != nullptr) {
    ++stats->node_cache_hits;
    fetched.decoded = *slot;
    return fetched;
  }
  // First fetch since the page became resident: decode the page bytes,
  // charged to the requesting actor, and keep the decode with the page.
  ++stats->node_decodes;
  fetched.decoded = std::make_shared<const DecodedNode>(Node::Load(file, id));
  fetched.fresh = true;
  if (slot != nullptr) *slot = fetched.decoded;
  return fetched;
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
    ++pinned_it->second.count;
    return;
  }
  PinnedPage pinned{1u, nullptr};
  auto frame_it = frames_.find(key);
  if (frame_it != frames_.end()) {
    // Promote from frame to pinned, decode included; frees the frame.
    if (frame_it->second.prefetched) {
      ConsumePrefetchedFrame(key, &frame_it->second, stats);
    }
    pinned.decoded = std::move(frame_it->second.decoded);
    order_.erase(frame_it->second.position);
    frames_.erase(frame_it);
  } else {
    // Not resident: pinning implies reading the page first.
    if (io_ != nullptr) io_->BlockingRead(this, file, id, page_size_, stats);
    ++stats->disk_reads;
  }
  pinned_.emplace(key, std::move(pinned));
}

void BufferPool::Unpin(const PagedFile& file, PageId id, Statistics* stats) {
  const PageKey key{&file, id};
  auto it = pinned_.find(key);
  RSJ_CHECK_MSG(it != pinned_.end(), "Unpin of a page that is not pinned");
  if (--it->second.count > 0) return;
  Decode decoded = std::move(it->second.decoded);
  pinned_.erase(it);
  // Recently used; keep it cached, with its decode, if the budget allows.
  Frame* frame = InsertNewest(key, stats);
  if (frame != nullptr) frame->decoded = std::move(decoded);
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

BufferPool::Frame* BufferPool::InsertNewest(const PageKey& key,
                                            Statistics* stats,
                                            bool prefetched) {
  if (frame_capacity_ == 0) return nullptr;
  while (order_.size() >= frame_capacity_) EvictOne(stats);
  order_.push_front(key);
  if (prefetched) ++prefetched_unconsumed_;
  Frame& frame = frames_[key];
  frame = Frame{order_.begin(), prefetched, nullptr};
  return &frame;
}

}  // namespace rsj
