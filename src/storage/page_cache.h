// The page-caching interface the join layer programs against.
//
// Two implementations exist:
//   * BufferPool        — the original single-owner pool (one Statistics,
//                         no locking); models one processor's private
//                         buffer, exactly the paper's setting.
//   * SharedBufferPool  — a sharded, thread-safe pool shared by all
//                         workers of a parallel join.
//
// Counter attribution is per call: every request carries the Statistics of
// the requesting actor (a worker or the coordinator), so a shared pool can
// charge hits, misses and evictions to whoever caused them.
//
// A resident page also carries its decode (storage/decoded_node.h): the
// paper sorts a page "immediately after it is read from disk" (§4.2), so a
// decoded node is valid exactly while its page stays buffer-resident.
// `Fetch` is the page request that hands the decode out.

#ifndef RSJ_STORAGE_PAGE_CACHE_H_
#define RSJ_STORAGE_PAGE_CACHE_H_

#include <cstdint>
#include <memory>

#include "storage/decoded_node.h"
#include "storage/paged_file.h"
#include "storage/statistics.h"

namespace rsj {

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

class PageCache {
 public:
  virtual ~PageCache() = default;

  // Requests page `id` of `file`. Counts either a disk read (miss) or a
  // buffer hit against `stats` and returns true when it was a hit.
  virtual bool Read(const PagedFile& file, PageId id, Statistics* stats) = 0;

  // A page request with Read's counters that also returns the page's
  // decode. The first Fetch since the page became resident decodes it; the
  // page's frame (or pin) keeps that decode, and later fetches share it.
  // Eviction, Clear and a zero-frame pool drop the decode; Pin and Unpin
  // carry it with the page. Read, Pin and Prefetch never decode.
  virtual FetchedNode Fetch(const PagedFile& file, PageId id,
                            Statistics* stats) = 0;

  // Pins the page, reading it first if absent (that read is counted).
  // Pins nest: a page pinned twice needs two Unpin() calls. Pinned pages
  // do not occupy frames and are never evicted.
  virtual void Pin(const PagedFile& file, PageId id, Statistics* stats) = 0;

  // Releases one pin. When the last pin is released the page moves into
  // the frames as the newest page (or is dropped with zero frames).
  virtual void Unpin(const PagedFile& file, PageId id, Statistics* stats) = 0;

  // Non-blocking read-ahead (src/io/prefetcher.h): when the page is not
  // resident, charges the physical read and lands the page as an
  // *evictable* frame marked prefetched — never as a pin — and returns
  // true. Resident pages coalesce to a no-op (false).
  // With an attached IoScheduler the read is issued asynchronously and the
  // consumer only pays the part of its service time that the prefetch
  // distance did not hide.
  virtual bool Prefetch(const PagedFile& file, PageId id,
                        Statistics* stats) = 0;

  // True when the page is resident (in a frame or pinned).
  virtual bool Contains(const PagedFile& file, PageId id) const = 0;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_PAGE_CACHE_H_
