// Buffered node access for the join engine.
//
// Every node the join touches is requested through a `NodeAccessor`, which
// routes the page request through the run's `BufferPool` (so disk
// accesses and buffer hits are counted) and hands back a view of the node
// on its page (rtree/node.h), whose columns the batch kernels scan in
// place.
//
// For the sweep-based algorithms the accessor hands out each node's
// entries sorted by lower x and charges the sort the way the paper models
// it (§4.2): a page is sorted "immediately after it is read from disk",
// so the request that takes the page over (`BufferPool::Take`: a miss, a
// frame a prefetch landed, a page a Pin read) charges it and later
// requests share it. A page already in order — every data page
// R*-insertion or STR packing writes — is its own sorted form; a page out
// of order (the insertion-built trees' level-1 directory pages) is sorted
// into the accessor's copy on every visit. The R side of a within-distance
// join hands the kernels its rectangles grown by ε, copied on every visit.
//
// Copies live in the accessor's per-depth scratch: a node visited at
// recursion depth d stays valid until the accessor's next visit at depth
// d, which is as long as the engine's traversal holds it. No page map
// outlives a visit; readers share a page's take-over, never a copy.

#ifndef RSJ_JOIN_NODE_ACCESSOR_H_
#define RSJ_JOIN_NODE_ACCESSOR_H_

#include <memory>
#include <vector>

#include "rtree/rtree.h"
#include "storage/buffer_pool.h"

namespace rsj {

// A node as the engine scans it: its entries in the accessor's order and
// the rectangles the batch kernels test — the entries' own, or their
// copies grown by the accessor's expansion.
struct VisitedNode {
  NodeView node;
  RectColumns rects;
};

class NodeAccessor {
 public:
  // Does not take ownership; all arguments must outlive the accessor.
  // Page requests are charged to `stats` (the owning worker's counters).
  // `expansion`, when positive, grows every rectangle the kernels scan
  // (the within-distance R-side pre-expansion); the view's own entries
  // stay unexpanded.
  NodeAccessor(const RTree& tree, BufferPool* pool, Statistics* stats,
               bool sort_on_read, double expansion = 0.0);

  NodeAccessor(const NodeAccessor&) = delete;
  NodeAccessor& operator=(const NodeAccessor&) = delete;

  // Reads page `id` through the pool and views its node, sorted when
  // sort_on_read. Valid until the next Visit at the same `depth`.
  VisitedNode Visit(PageId id, size_t depth);

  // Pins / unpins the page in the pool.
  void Pin(PageId id);
  void Unpin(PageId id);

  const RTree& tree() const { return tree_; }

 private:
  // One depth's copies: the page sorted, and its rectangles grown.
  struct Copies {
    NodeCopy sorted;
    NodeCopy expanded;
  };

  const RTree& tree_;
  BufferPool* pages_;
  Statistics* stats_;
  bool sort_on_read_;
  double expansion_;
  std::vector<std::unique_ptr<Copies>> scratch_;  // one per depth
};

}  // namespace rsj

#endif  // RSJ_JOIN_NODE_ACCESSOR_H_
