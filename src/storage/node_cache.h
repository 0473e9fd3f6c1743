// Sharded, thread-safe cache of decoded R-tree nodes, layered over a
// PageCache.
//
// The page layer models the paper's I/O accounting: every node visit is a
// page request, counted as a disk read or a buffer hit. Decoding the page
// payload into a `Node` is pure CPU work on top of that, and without this
// cache it is repeated freely: the partitioner decodes directory nodes the
// workers decode again, every multi-way probe decodes every page it
// visits. The node cache keeps one immutable decoded copy per resident
// page and shares it across all actors: the key space is hash-partitioned
// into shards (the same shard/lock structure as SharedBufferPool), each an
// independently locked LRU map from PageKey to
// `shared_ptr<const DecodedNode>` — the node plus its SoA RectBlock, built
// once per decode.
//
// The sweep algorithms and the chain probes read a node's entries sorted
// by lower x (§4.2: a page is sorted "immediately after it is read from
// disk"). A decode carries that sorted form too, built at most once, on the
// first reader's request, so every worker of every query borrows one sort
// instead of copying and sorting the node itself. A page already in xl
// order — R*-insertion keeps leaves so — shares the decode as its sorted
// form; only an unordered page gets a sorted copy. Readers that never ask
// for it (the partitioner) never build it.
//
// A cached decode is only valid while the page is buffer-resident: `Fetch`
// always issues the page request first (so I/O counters are untouched by
// this layer), and a physical re-read — a page-cache miss — re-decodes the
// page, exactly as a real system would have to. Counter attribution follows
// the PageCache contract: every call charges the requesting actor's
// Statistics, via the `node_decodes` and `node_cache_hits` counters. The
// sort's comparisons are charged by the reader (join/node_accessor.h, the
// chain probe in join/multiway_join.h), from the count the sorted form
// memoizes.
//
// Returned nodes are immutable and shared; the cache bounds how many
// decodes it keeps (`capacity_nodes`), not their bytes.

#ifndef RSJ_STORAGE_NODE_CACHE_H_
#define RSJ_STORAGE_NODE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "geom/rect_block.h"
#include "rtree/node.h"
#include "storage/page_cache.h"

namespace rsj {

// Adaptive (insertion) sort by lower x, stable, counting one comparison per
// comparator evaluation; returns that count. R*-splits leave node entries
// sorted along the split axis, so freshly read pages are often nearly
// sorted and the adaptive sort finishes in ~n comparisons — matching the
// paper's low per-page sorting costs (Table 4).
uint64_t InsertionSortByLowerX(std::vector<Entry>* entries);

// A decoded page: the node plus its entry rectangles re-laid-out as a SoA
// RectBlock (entry order, no expansion) for the batch kernels. Both are
// built in one pass at decode time, so every consumer of a shared decode
// gets the vector-friendly layout for free.
struct DecodedNode {
  // The node's entries in xl order, as InsertionSortByLowerX leaves them,
  // their SoA block (no expansion), and the sort's comparison count. When
  // the page is already in xl order, `node` and `block` point at the
  // decode's own and `sort_cost` is the n - 1 comparisons the insertion
  // sort charges on ordered input; otherwise they point at a sorted copy.
  struct Sorted {
    const Node* node = nullptr;
    const RectBlock* block = nullptr;
    uint64_t sort_cost = 0;
  };

  Node node;
  RectBlock block;

  explicit DecodedNode(Node n) : node(std::move(n)) {
    block.AssignEntries(std::span<const Entry>(node.entries), 0.0);
  }

  // The sorted form, built from `node` on the first call; later calls, from
  // any thread, return the same object. Safe to call concurrently.
  const Sorted& sorted() const;

 private:
  struct SortedCopy {
    Node node;
    RectBlock block;
  };

  mutable std::once_flag sorted_once_;
  mutable Sorted sorted_;
  mutable std::unique_ptr<SortedCopy> copy_;  // pages out of xl order only
};

class NodeCache {
 public:
  struct Options {
    // Maximal cached decodes across all shards (the eviction bound).
    size_t capacity_nodes = 4096;
    size_t shard_count = 8;
  };

  struct FetchResult {
    std::shared_ptr<const DecodedNode> decoded;
    // True when the page request was served from the page buffer. A miss
    // means the page was physically re-read, which forces a re-decode.
    bool page_hit = false;

    const Node& node() const { return decoded->node; }
    const RectBlock& block() const { return decoded->block; }
  };

  // `pages` must outlive the cache and must itself be thread-safe when the
  // node cache is shared across threads (i.e. a SharedBufferPool).
  NodeCache(PageCache* pages, const Options& options);

  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  // Requests the page through the page cache (charged to `stats` as usual)
  // and returns its decoded node: a cached copy when the page stayed
  // resident since the last decode (one `node_cache_hits`), a fresh decode
  // otherwise (one `node_decodes`).
  FetchResult Fetch(const PagedFile& file, PageId id, Statistics* stats);

  // Drops every cached decode.
  void Clear();

  // Decodes currently cached across all shards (snapshot).
  size_t node_count() const;

  size_t capacity_nodes() const { return capacity_nodes_; }
  size_t shard_count() const { return shards_.size(); }

  // The page layer this cache decodes from.
  PageCache* pages() const { return pages_; }

 private:
  struct CacheEntry {
    std::shared_ptr<const DecodedNode> node;
    std::list<PageKey>::iterator position;  // place in the LRU order list
  };

  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    std::list<PageKey> order;  // front = most recently fetched
    std::unordered_map<PageKey, CacheEntry, PageKeyHash> nodes;
  };

  Shard& ShardFor(const PageKey& key) {
    return *shards_[PageKeyHash{}(key) % shards_.size()];
  }

  PageCache* pages_;
  size_t capacity_nodes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_NODE_CACHE_H_
