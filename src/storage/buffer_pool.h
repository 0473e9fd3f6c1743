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
// A resident page also carries its decode (storage/decoded_node.h): the
// paper sorts a page "immediately after it is read from disk" (§4.2), so a
// decoded node is valid exactly while its page stays buffer-resident.
// `Fetch` is the page request that hands the decode out.
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
// Threading: every call is thread-safe. The key space is hash-partitioned
// (`PageKeyHash` modulo `shard_count`) into independently locked LRU
// shards, so concurrent workers only contend when they touch pages of the
// same shard; the frame budget is dealt round-robin over the shards (a
// shard may get zero frames). A page's pins and decode live in its shard
// under the same lock, so pins taken by two workers nest, and a `Fetch`
// decodes under the shard's lock: a resident page is decoded once however
// many readers race for it. One shard is one LRU over the whole budget —
// the paper's buffer — and what a one-thread run reads through; pools that
// concurrent workers share use `kSharedPoolShards`.

#ifndef RSJ_STORAGE_BUFFER_POOL_H_
#define RSJ_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/decoded_node.h"
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

// A page request's decode. The holder keeps it alive after the pool has
// dropped it (evicted or re-read the page).
struct FetchedNode {
  std::shared_ptr<const DecodedNode> decoded;
  // Read's result: true when the request was a buffer hit, false when the
  // page was physically read.
  bool page_hit = false;
  // True when this request decoded the page (one `node_decodes`); false
  // when it shared the resident page's decode (one `node_cache_hits`).
  bool fresh = false;
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
  // buffer hit against `stats` and returns true when it was a hit. A
  // reader that still holds the page's decode from an earlier Fetch passes
  // it as `decoded`: a miss leaves it with the re-read page, whose decode
  // the reader charges, so later fetches share it instead of decoding
  // the page again.
  bool Read(const PagedFile& file, PageId id, Statistics* stats,
            const std::shared_ptr<const DecodedNode>& decoded = nullptr);

  // A page request with Read's counters that also returns the page's
  // decode. The first Fetch since the page became resident decodes it; the
  // page's frame (or pin) keeps that decode, and later fetches share it.
  // Eviction, Clear and a zero-frame pool drop the decode; Pin and Unpin
  // carry it with the page. Read, Pin and Prefetch never decode.
  FetchedNode Fetch(const PagedFile& file, PageId id, Statistics* stats);

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

  // Drops all cached pages (pins must have been released).
  void Clear();

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

  // One independently locked LRU over the keys that hash into it.
  struct Shard {
    mutable std::mutex mu;
    size_t frame_capacity = 0;
    size_t prefetched_unconsumed = 0;
    // LRU list: front = most recently used, back = the eviction candidate.
    std::list<PageKey> order;
    std::unordered_map<PageKey, Frame, PageKeyHash> frames;
    // Pinned pages with their pin counts and decodes.
    std::unordered_map<PageKey, PinnedPage, PageKeyHash> pinned;
  };

  Shard& ShardFor(const PageKey& key) const {
    return *shards_[PageKeyHash{}(key) % shards_.size()];
  }

  // Sums `count(shard)` over the shards, each under its lock.
  template <typename Count>
  size_t SumOverShards(Count count) const;

  // The page request behind Read and Fetch: counts a hit or a read and
  // returns the resident page's decode slot — nullptr when the page did
  // not stay resident (a zero-frame shard). Caller holds `shard.mu`.
  Decode* Request(Shard& shard, const PageKey& key, Statistics* stats,
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
