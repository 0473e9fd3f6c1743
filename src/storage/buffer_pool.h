// Buffer pool with page pinning — the protagonist of §4.1/§4.3.
//
// The paper assumes an LRU buffer owned by the surrounding system; its size
// is given in bytes (0, 8K, 32K, 128K, 512K) and divides by the page size
// into a frame count, which may be zero. SpatialJoin4/5 additionally *pin*
// one page at a time: a pinned page stays memory-resident even when the LRU
// frame budget is zero (the join algorithm itself holds on to it, exactly
// like it holds the current recursion path). The pool therefore tracks
// pinned pages outside the frame budget.
//
// Because the backing `PagedFile`s are in-memory, the pool does not copy
// page bytes; it is the *accounting* authority: `Read()` returns whether the
// request was a disk access or a buffer hit and updates `Statistics`. A
// frame or pin also holds the page's decode once a `Fetch` has built it
// (storage/page_cache.h), and drops it with the page.
//
// The pool also implements the non-blocking `Prefetch` entry point of the
// async I/O subsystem (src/io/): a prefetched page lands as an *evictable*
// frame marked prefetched (never as a pin), duplicate prefetches of
// resident pages coalesce, and the first consumer touch turns the mark
// into a `prefetch_hits`. Evicting a marked frame before any consumer
// touched it counts `prefetch_wasted`. With an `IoScheduler` attached,
// misses are additionally serviced in modeled disk-array time and
// prefetches become asynchronous reads whose service time overlaps the
// consumer's timeline. The scheduler keeps an async completion for
// exactly the pool's resident, unconsumed prefetched frames: consuming,
// evicting or clearing such a frame drops it, so a miss never finds one.
//
// `BufferPool` is single-owner (not thread-safe) and implements the
// `PageCache` interface; the thread-safe shared variant lives in
// storage/shared_buffer_pool.h.

#ifndef RSJ_STORAGE_BUFFER_POOL_H_
#define RSJ_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "storage/page_cache.h"
#include "storage/paged_file.h"
#include "storage/statistics.h"

namespace rsj {

class IoScheduler;

class BufferPool : public PageCache {
 public:
  struct Options {
    uint64_t capacity_bytes = 128 * 1024;  // frame budget; 0 disables caching
    uint32_t page_size = kPageSize4K;
  };

  explicit BufferPool(const Options& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // PageCache interface: charges the caller-provided Statistics.
  bool Read(const PagedFile& file, PageId id, Statistics* stats) override;
  FetchedNode Fetch(const PagedFile& file, PageId id,
                    Statistics* stats) override;
  void Pin(const PagedFile& file, PageId id, Statistics* stats) override;
  void Unpin(const PagedFile& file, PageId id, Statistics* stats) override;
  bool Prefetch(const PagedFile& file, PageId id, Statistics* stats) override;
  bool Contains(const PagedFile& file, PageId id) const override;

  // Attaches the modeled-time layer (src/io/io_scheduler.h): misses are
  // then serviced in simulated disk-array time and prefetches become
  // genuinely asynchronous reads. nullptr detaches; not owned. Without a
  // scheduler the pool's behaviour (and all pre-existing counters) are
  // unchanged and Prefetch degrades to zero-latency accounting.
  void AttachIoScheduler(IoScheduler* io) { io_ = io; }

  // Drops all cached pages (pins must have been released).
  void Clear();

  // Number of frames the byte budget buys (0 when budget < page size).
  size_t frame_capacity() const { return frame_capacity_; }

  // Currently used frames (excludes pinned pages).
  size_t frames_in_use() const { return frames_.size(); }

  size_t pinned_pages() const { return pinned_.size(); }

  // Frames holding a prefetched page no consumer has touched yet.
  size_t prefetched_unconsumed() const { return prefetched_unconsumed_; }

 private:
  using Decode = std::shared_ptr<const DecodedNode>;

  struct Frame {
    std::list<PageKey>::iterator position;  // place in the LRU list
    bool prefetched = false;                // landed by Prefetch, untouched
    Decode decoded;                         // built by the first Fetch
  };

  struct PinnedPage {
    uint32_t count = 0;  // pins nest
    Decode decoded;
  };

  // The page request behind Read and Fetch: counts a hit or a read and
  // returns the resident page's decode slot — nullptr when the page did
  // not stay resident (a zero-frame pool).
  Decode* Request(const PagedFile& file, PageId id, Statistics* stats,
                  bool* hit);

  // Inserts the key as the most recently used frame, evicting the least
  // recently used ones if needed; returns the frame (nullptr with zero
  // frames).
  Frame* InsertNewest(const PageKey& key, Statistics* stats,
                      bool prefetched = false);

  // Frees the least recently used frame.
  void EvictOne(Statistics* stats);

  // Clears a consumed frame's prefetch mark and settles the modeled
  // timeline against the async completion.
  void ConsumePrefetchedFrame(const PageKey& key, Frame* frame,
                              Statistics* stats);

  size_t frame_capacity_;
  uint32_t page_size_;
  IoScheduler* io_ = nullptr;  // optional modeled-time layer
  size_t prefetched_unconsumed_ = 0;

  // LRU list: front = most recently used, back = the eviction candidate.
  std::list<PageKey> order_;
  std::unordered_map<PageKey, Frame, PageKeyHash> frames_;

  // Pinned pages with their pin counts and decodes.
  std::unordered_map<PageKey, PinnedPage, PageKeyHash> pinned_;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_BUFFER_POOL_H_
