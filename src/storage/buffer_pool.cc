#include "storage/buffer_pool.h"

#include "common/logging.h"
#include "io/io_scheduler.h"

namespace rsj {

BufferPool::BufferPool(const Options& options)
    : frame_capacity_(options.page_size == 0
                          ? 0
                          : options.capacity_bytes / options.page_size),
      page_size_(options.page_size) {
  // Silently constructing zero-frame shards hides configuration bugs (a
  // forgotten page size turns the pool into a 100%-miss cache); fail fast.
  RSJ_CHECK_MSG(options.page_size != 0, "buffer pool needs a page size");
  RSJ_CHECK_MSG(options.shard_count != 0, "buffer pool needs >= 1 shard");
  // Deal the frame budget round-robin so small budgets still spread over
  // several shards (pinned pages live outside the budget either way).
  const size_t shard_count = options.shard_count;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->frame_capacity = frame_capacity_ / shard_count +
                                     (i < frame_capacity_ % shard_count);
  }
}

void BufferPool::ConsumePrefetchedFrame(Shard& shard, const PageKey& key,
                                        Frame* frame, Statistics* stats) {
  frame->prefetched = false;
  --shard.prefetched_unconsumed;
  ++stats->prefetch_hits;
  if (io_ != nullptr) io_->ConsumePrefetched(this, *key.file, key.id, stats);
}

BufferPool::Decode* BufferPool::Request(Shard& shard, const PageKey& key,
                                        Statistics* stats, bool* hit) {
  if (io_ != nullptr) io_->ChargeCpuPerRead(stats);
  *hit = true;
  auto pinned_it = shard.pinned.find(key);
  if (pinned_it != shard.pinned.end()) {
    ++stats->buffer_hits;
    return &pinned_it->second.decoded;
  }
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    ++stats->buffer_hits;
    if (it->second.prefetched) {
      ConsumePrefetchedFrame(shard, key, &it->second, stats);
    }
    shard.order.splice(shard.order.begin(), shard.order, it->second.position);
    return &it->second.decoded;
  }
  *hit = false;
  if (io_ != nullptr) {
    io_->BlockingRead(this, *key.file, key.id, page_size_, stats);
  }
  ++stats->disk_reads;
  Frame* frame = InsertNewest(shard, key, stats);
  return frame != nullptr ? &frame->decoded : nullptr;
}

bool BufferPool::Read(const PagedFile& file, PageId id, Statistics* stats,
                      const Decode& decoded) {
  const PageKey key{&file, id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  bool hit = false;
  Decode* slot = Request(shard, key, stats, &hit);
  if (!hit && slot != nullptr) *slot = decoded;
  return hit;
}

FetchedNode BufferPool::Fetch(const PagedFile& file, PageId id,
                              Statistics* stats) {
  const PageKey key{&file, id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  FetchedNode fetched;
  Decode* slot = Request(shard, key, stats, &fetched.page_hit);
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
  const PageKey key{&file, id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.frame_capacity == 0) return false;  // nowhere to land
  if (shard.pinned.contains(key) || shard.frames.contains(key)) {
    return false;  // resident: duplicate prefetches coalesce
  }
  // The hinting actor's clock stamps the issue time.
  if (io_ != nullptr) io_->SubmitAsync(this, file, id, page_size_, stats);
  ++stats->prefetch_issued;
  ++stats->disk_reads;
  InsertNewest(shard, key, stats, /*prefetched=*/true);
  return true;
}

void BufferPool::Pin(const PagedFile& file, PageId id, Statistics* stats) {
  const PageKey key{&file, id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  ++stats->pin_count;
  auto pinned_it = shard.pinned.find(key);
  if (pinned_it != shard.pinned.end()) {
    ++pinned_it->second.count;
    return;
  }
  PinnedPage pinned{1u, nullptr};
  auto frame_it = shard.frames.find(key);
  if (frame_it != shard.frames.end()) {
    // Promote from frame to pinned, decode included; frees the frame.
    if (frame_it->second.prefetched) {
      ConsumePrefetchedFrame(shard, key, &frame_it->second, stats);
    }
    pinned.decoded = std::move(frame_it->second.decoded);
    shard.order.erase(frame_it->second.position);
    shard.frames.erase(frame_it);
  } else {
    // Not resident: pinning implies reading the page first.
    if (io_ != nullptr) io_->BlockingRead(this, file, id, page_size_, stats);
    ++stats->disk_reads;
  }
  shard.pinned.emplace(key, std::move(pinned));
}

void BufferPool::Unpin(const PagedFile& file, PageId id, Statistics* stats) {
  const PageKey key{&file, id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.pinned.find(key);
  RSJ_CHECK_MSG(it != shard.pinned.end(), "Unpin of a page that is not pinned");
  if (--it->second.count > 0) return;
  Decode decoded = std::move(it->second.decoded);
  shard.pinned.erase(it);
  // Recently used; keep it cached, with its decode, if the budget allows.
  Frame* frame = InsertNewest(shard, key, stats);
  if (frame != nullptr) frame->decoded = std::move(decoded);
}

bool BufferPool::Contains(const PagedFile& file, PageId id) const {
  const PageKey key{&file, id};
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pinned.contains(key) || shard.frames.contains(key);
}

void BufferPool::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    RSJ_CHECK_MSG(shard->pinned.empty(),
                  "Clear() with pinned pages outstanding");
    if (io_ != nullptr) {
      for (const auto& [key, frame] : shard->frames) {
        if (frame.prefetched) io_->AbandonPrefetched(this, *key.file, key.id);
      }
    }
    shard->order.clear();
    shard->frames.clear();
    shard->prefetched_unconsumed = 0;
  }
}

template <typename Count>
size_t BufferPool::SumOverShards(Count count) const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += count(*shard);
  }
  return total;
}

size_t BufferPool::frames_in_use() const {
  return SumOverShards([](const Shard& s) { return s.frames.size(); });
}

size_t BufferPool::pinned_pages() const {
  return SumOverShards([](const Shard& s) { return s.pinned.size(); });
}

size_t BufferPool::prefetched_unconsumed() const {
  return SumOverShards([](const Shard& s) { return s.prefetched_unconsumed; });
}

void BufferPool::EvictOne(Shard& shard, Statistics* stats) {
  const PageKey victim = shard.order.back();
  auto it = shard.frames.find(victim);
  RSJ_DCHECK(it != shard.frames.end());
  if (it->second.prefetched) {
    // An unconsumed prefetched victim is wasted I/O; the scheduler also
    // forgets its completion, so a later miss pays a genuine read.
    --shard.prefetched_unconsumed;
    ++stats->prefetch_wasted;
    if (io_ != nullptr) io_->AbandonPrefetched(this, *victim.file, victim.id);
  }
  shard.frames.erase(it);
  shard.order.pop_back();
  ++stats->buffer_evictions;
}

BufferPool::Frame* BufferPool::InsertNewest(Shard& shard, const PageKey& key,
                                            Statistics* stats,
                                            bool prefetched) {
  if (shard.frame_capacity == 0) return nullptr;
  while (shard.order.size() >= shard.frame_capacity) EvictOne(shard, stats);
  shard.order.push_front(key);
  if (prefetched) ++shard.prefetched_unconsumed;
  Frame& frame = shard.frames[key];
  frame = Frame{shard.order.begin(), prefetched, nullptr};
  return &frame;
}

}  // namespace rsj
