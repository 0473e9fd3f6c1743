// Buffered node access for the join engine.
//
// Every node the join touches is requested through a `NodeAccessor`, which
// routes the page request through the run's `BufferPool` (so disk
// accesses and buffer hits are counted) and hands back the decoded node.
//
// For the sweep-based algorithms the accessor hands out each node's
// entries sorted by their rectangles' lower x coordinate and charges the
// sorting comparisons the way the paper models it (§4.2): a page is sorted
// "immediately after it is read from disk", i.e. with every decode of a
// physically read page, but not on buffer hits that share a decode.
//
// The nodes are the pool's decodes (`BufferPool::Fetch`): on its first
// visit to a page the accessor keeps a reference to the resident page's
// decode and hands out views of it — its sorted form for the sweep
// algorithms (storage/decoded_node.h), built once for all readers of the
// pool. Later visits reuse the reference and issue plain page requests
// (`BufferPool::Read`). On either kind of visit, a request that finds the
// page without a decode — a miss, a frame a prefetch landed, or a page
// Pin read — charges the decode and the sort, and a visit that shares a
// decode another reader built shares its sort. A repeat visit charges the
// memoized sort (the in-memory copy stays sorted; physically the page
// would be re-sorted from scratch) and leaves its reference with the
// page, so another reader's fetch shares it instead of decoding the page
// a second time.
// The accessor copies nothing, except on the R side of a within-distance
// join, whose SoA block carries the predicate expansion and so is the
// accessor's own.
//
// Each node comes with its entry rectangles as a SoA `RectBlock`
// (geom/rect_block.h), so the engine's inner loops run the batch kernels
// without per-visit conversion.

#ifndef RSJ_JOIN_NODE_ACCESSOR_H_
#define RSJ_JOIN_NODE_ACCESSOR_H_

#include <memory>
#include <unordered_map>

#include "rtree/rtree.h"
#include "storage/buffer_pool.h"

namespace rsj {

// A fetched node as the engine consumes it: the decoded (possibly sorted)
// entries plus their SoA block with the accessor's expansion baked in.
// Both pointers stay valid for the accessor's lifetime, even when the pool
// evicts or re-decodes the page meanwhile.
struct NodeView {
  const Node* node = nullptr;
  const RectBlock* block = nullptr;
};

class NodeAccessor {
 public:
  // Does not take ownership; all arguments must outlive the accessor.
  // Page requests are charged to `stats` (the owning worker's counters).
  // `expansion`, when positive, is baked into every handed-out RectBlock
  // (the within-distance R-side pre-expansion); the Node's own entries
  // stay unexpanded.
  NodeAccessor(const RTree& tree, BufferPool* pool, Statistics* stats,
               bool sort_on_read, double expansion = 0.0);

  NodeAccessor(const NodeAccessor&) = delete;
  NodeAccessor& operator=(const NodeAccessor&) = delete;

  // Reads page `id` through the pool and returns the decoded node.
  // The reference stays valid for the accessor's lifetime.
  const Node& Fetch(PageId id);

  // Like Fetch, but also hands out the node's SoA entry block (sorted with
  // the entries when sort_on_read, expanded by `expansion`).
  NodeView FetchView(PageId id);

  // Pins / unpins the page in the pool.
  void Pin(PageId id);
  void Unpin(PageId id);

  const RTree& tree() const { return tree_; }

 private:
  // One visited page. `view` points into `decoded` (the pool's decode, kept
  // alive here), except for an R-side block expanded by `expansion_`,
  // which is the accessor's own `block`.
  struct CachedNode {
    std::shared_ptr<const DecodedNode> decoded;
    RectBlock block;
    NodeView view;
    uint64_t sort_cost = 0;  // comparisons of the from-scratch sort
  };

  const CachedNode& FetchCached(PageId id);

  const RTree& tree_;
  BufferPool* pages_;
  Statistics* stats_;
  bool sort_on_read_;
  double expansion_;
  std::unordered_map<PageId, CachedNode> cache_;
};

}  // namespace rsj

#endif  // RSJ_JOIN_NODE_ACCESSOR_H_
