// Buffer pool with page pinning — the protagonist of §4.1/§4.3, and the one
// page cache every join, probe, partitioner and prefetcher reads through.
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
// request was a disk access or a buffer hit and updates `Statistics`.
// Counter attribution is per call: every request carries the Statistics of
// the requesting actor (a worker or the coordinator), so a pool shared by
// concurrent workers charges hits, misses and evictions to whoever caused
// them — an eviction to the caller whose insertion triggered it.
//
// Readers scan a resident page's bytes in place (rtree/node.h); the pool
// keeps one bit per resident page, set once a reader has taken it over.
// The paper sorts a page "immediately after it is read from disk" (§4.2):
// the request that takes a page over (`Take`) charges its decode
// (`node_decodes`) and its reader the sort.
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
// exactly the pool's resident, unconsumed prefetched frames: consuming or
// evicting such a frame drops it, so a miss never finds one.
//
// Threading: every call is thread-safe. The key space is hash-partitioned
// (`PageKeyHash` modulo `shard_count`) into independently locked LRU
// shards, so concurrent workers only contend when they touch pages of the
// same shard; the frame budget is dealt round-robin over the shards (a
// shard may get zero frames). A shard's lock guards only its bookkeeping —
// the LRU order, pins, prefetch marks and take-over bits — never page
// bytes, which readers scan without a lock. Pins taken by two workers
// nest, and a page's take-over is set under its shard's lock: one request
// takes a resident page over however many readers race for it. One shard
// is one LRU over the whole budget — the paper's buffer — and what a
// one-thread run reads through; pools that concurrent workers share use
// up to `kSharedPoolShards`.

#ifndef RSJ_STORAGE_BUFFER_POOL_H_
#define RSJ_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/paged_file.h"
#include "storage/statistics.h"

namespace rsj {

class IoScheduler;

// Pages are identified across files by (file identity, page id).
struct PageKey {
  const PagedFile* file = nullptr;
  PageId id = kInvalidPageId;

  friend bool operator==(const PageKey&, const PageKey&) = default;
};

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    const auto h1 = std::hash<const void*>{}(k.file);
    const auto h2 = std::hash<uint32_t>{}(k.id);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

// Shards of a pool that concurrent workers share (an engine's, or a
// parallel run's).
inline constexpr size_t kSharedPoolShards = 8;

class BufferPool {
 public:
  struct Options {
    uint64_t capacity_bytes = 128 * 1024;  // frame budget, all shards;
                                           // 0 disables caching
    uint32_t page_size = kPageSize4K;      // must be > 0
    size_t shard_count = 1;                // must be > 0
  };

  explicit BufferPool(const Options& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Requests page `id` of `file`. Counts either a disk read (miss) or a
  // buffer hit against `stats` and returns true when it was a hit.
  bool Read(const PagedFile& file, PageId id, Statistics* stats);

  // A reader's page request: Read's counters, and returns true when this
  // request took the page over — the first reader's request since the
  // page became resident (a miss, a frame a prefetch landed, a page a Pin
  // read). That request charges `node_decodes`, and its caller charges the
  // page's sort; every later request charges `node_cache_hits`. A page
  // that does not stay resident (a zero-frame shard) is taken over by
  // every request. Eviction drops the take-over; Pin and Unpin carry it
  // with the page. Read, Pin and Prefetch never take a page over.
  bool Take(const PagedFile& file, PageId id, Statistics* stats);

  // Pins the page, reading it first if absent (that read is counted).
  // Pins nest: a page pinned twice needs two Unpin() calls. Pinned pages
  // do not occupy frames and are never evicted.
  void Pin(const PagedFile& file, PageId id, Statistics* stats);

  // Releases one pin. When the last pin is released the page moves into
  // the frames as the newest page (or is dropped with zero frames).
  void Unpin(const PagedFile& file, PageId id, Statistics* stats);

  // Non-blocking read-ahead (src/io/prefetcher.h): when the page is not
  // resident, charges the physical read and lands the page as an
  // *evictable* frame marked prefetched — never as a pin — and returns
  // true. Resident pages coalesce to a no-op (false). With an attached
  // IoScheduler the read is issued asynchronously and the consumer only
  // pays the part of its service time that the prefetch distance did not
  // hide.
  bool Prefetch(const PagedFile& file, PageId id, Statistics* stats);

  // True when the page is resident (in a frame or pinned).
  bool Contains(const PagedFile& file, PageId id) const;

  // Attaches the modeled-time layer (src/io/io_scheduler.h): misses are
  // then serviced in simulated disk-array time and prefetches become
  // genuinely asynchronous reads. nullptr detaches; not owned. Without a
  // scheduler the pool's behaviour (and all pre-existing counters) are
  // unchanged and Prefetch degrades to zero-latency accounting. Attach
  // before the pool is shared: the shards call into the (thread-safe)
  // scheduler under their own locks.
  void AttachIoScheduler(IoScheduler* io) { io_ = io; }

  // Number of frames the byte budget buys (0 when budget < page size).
  size_t frame_capacity() const { return frame_capacity_; }

  size_t shard_count() const { return shards_.size(); }

  // Counts summed over the shards, exact while no other thread calls into
  // the pool: used frames (pinned pages excluded), pinned pages, and frames
  // holding a prefetched page no consumer has touched yet.
  size_t frames_in_use() const;
  size_t pinned_pages() const;
  size_t prefetched_unconsumed() const;

 private:
  struct Frame {
    std::list<PageKey>::iterator position;  // place in the LRU list
    bool prefetched = false;                // landed by Prefetch, untouched
    bool taken = false;                     // set by the first Take
  };

  struct PinnedPage {
    uint32_t count = 0;  // pins nest
    bool taken = false;
  };

  // One independently locked LRU over the keys that hash into it.
  struct Shard {
    mutable std::mutex mu;
    size_t frame_capacity = 0;
    size_t prefetched_unconsumed = 0;
    // LRU list: front = most recently used, back = the eviction candidate.
    std::list<PageKey> order;
    std::unordered_map<PageKey, Frame, PageKeyHash> frames;
    // Pinned pages with their pin counts and take-overs.
    std::unordered_map<PageKey, PinnedPage, PageKeyHash> pinned;
  };

  Shard& ShardFor(const PageKey& key) const {
    return *shards_[PageKeyHash{}(key) % shards_.size()];
  }

  // Sums `count(shard)` over the shards, each under its lock.
  template <typename Count>
  size_t SumOverShards(Count count) const;

  // The page request behind Read and Take: counts a hit or a read and
  // returns the resident page's take-over bit — nullptr when the page did
  // not stay resident (a zero-frame shard). Caller holds `shard.mu`.
  bool* Request(Shard& shard, const PageKey& key, Statistics* stats,
                bool* hit);

  // Inserts the key as the shard's most recently used frame, evicting its
  // least recently used ones if needed; returns the frame (nullptr with
  // zero frames). Caller holds `shard.mu`.
  Frame* InsertNewest(Shard& shard, const PageKey& key, Statistics* stats,
                      bool prefetched = false);

  // Frees the shard's least recently used frame. Caller holds `shard.mu`.
  void EvictOne(Shard& shard, Statistics* stats);

  // Clears a consumed frame's prefetch mark and settles the modeled
  // timeline against the async completion. Caller holds `shard.mu`.
  void ConsumePrefetchedFrame(Shard& shard, const PageKey& key, Frame* frame,
                              Statistics* stats);

  size_t frame_capacity_;
  uint32_t page_size_;
  IoScheduler* io_ = nullptr;  // optional modeled-time layer
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_BUFFER_POOL_H_
