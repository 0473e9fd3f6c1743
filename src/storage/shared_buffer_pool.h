// Thread-safe shared buffer pool for the parallel join executor.
//
// The seed parallel join gave every worker a fully private BufferPool, so
// hot directory pages near the root were re-read once per worker and the
// frame budget multiplied with the thread count. This pool is shared by all
// workers instead: the key space is hash-partitioned into shards, each an
// independently locked BufferPool, so concurrent workers only contend when
// they touch pages of the same shard. Pin counts live in the shard pools
// under the same lock, which makes SJ4/SJ5 pinning safe across threads
// (two workers pinning the same page nest their pins).
//
// Counter attribution follows the PageCache contract: every call charges
// the requesting worker's Statistics, so per-worker I/O skew stays
// observable even though the frames are shared. Evictions are charged to
// the worker whose insertion triggered them.
//
// A frame's decode is shared the same way: the coordinator's directory
// decodes and one query's hot pages serve every worker and session while
// the page stays resident. A Fetch decodes under its shard's lock, so a
// resident page is decoded once however many readers race for it.

#ifndef RSJ_STORAGE_SHARED_BUFFER_POOL_H_
#define RSJ_STORAGE_SHARED_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_cache.h"

namespace rsj {

class SharedBufferPool : public PageCache {
 public:
  struct Options {
    uint64_t capacity_bytes = 128 * 1024;  // total frame budget, all shards
    uint32_t page_size = kPageSize4K;
    size_t shard_count = 8;
  };

  explicit SharedBufferPool(const Options& options);

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  bool Read(const PagedFile& file, PageId id, Statistics* stats) override;
  FetchedNode Fetch(const PagedFile& file, PageId id,
                    Statistics* stats) override;
  void Pin(const PagedFile& file, PageId id, Statistics* stats) override;
  void Unpin(const PagedFile& file, PageId id, Statistics* stats) override;
  bool Prefetch(const PagedFile& file, PageId id, Statistics* stats) override;
  bool Contains(const PagedFile& file, PageId id) const override;

  // Attaches the modeled-time layer to every shard (see
  // BufferPool::AttachIoScheduler). The scheduler is thread-safe; each
  // shard calls into it under its own lock.
  void AttachIoScheduler(IoScheduler* io);

  // Drops all cached pages (no pins may be outstanding).
  void Clear();

  // Total frames across all shards.
  size_t frame_capacity() const { return frame_capacity_; }

  size_t shard_count() const { return shards_.size(); }

  // Snapshot counts; exact only while no worker is active.
  size_t frames_in_use() const;
  size_t pinned_pages() const;
  size_t prefetched_unconsumed() const;

 private:
  // One independently locked cache unit: a plain BufferPool scoped to the
  // keys that hash into it.
  struct Shard {
    explicit Shard(const BufferPool::Options& options) : pool(options) {}
    mutable std::mutex mu;
    BufferPool pool;
  };

  Shard& ShardFor(const PageKey& key) {
    return *shards_[PageKeyHash{}(key) % shards_.size()];
  }
  const Shard& ShardFor(const PageKey& key) const {
    return *shards_[PageKeyHash{}(key) % shards_.size()];
  }

  size_t frame_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_SHARED_BUFFER_POOL_H_
