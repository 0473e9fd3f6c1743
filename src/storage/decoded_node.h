// A decoded R-tree page, as the buffer pool hands it out.
//
// The page layer models the paper's I/O accounting: every node visit is a
// page request, counted as a disk read or a buffer hit. Decoding the page
// payload into a `Node` is pure CPU work on top of that. A resident page
// carries its decode in its buffer frame (storage/buffer_pool.h,
// `BufferPool::Fetch`): the first fetch since the page became resident
// decodes it, every later fetch — from any reader of the pool — shares
// that decode, and the decode leaves with the page. A physical re-read
// therefore decodes again, exactly as a real system would have to.
//
// The sweep algorithms, the partitioner and the window probes read a node's
// entries sorted by lower x (§4.2: a page is sorted "immediately after it
// is read from disk"). A decode carries that sorted form too, built at most
// once, on the first reader's request, so every worker of every query
// borrows one sort instead of copying and sorting the node itself. A page
// already in xl order — R*-insertion and STR packing keep nodes so — shares
// the decode as its sorted form; only an unordered page gets a sorted copy.
// Readers that never ask for it (SJ1 and SJ2) never build it. The sort's
// comparisons are charged by the reader (join/node_accessor.h,
// exec/partition.h, join/window_probe.h), from the count the sorted form
// memoizes.

#ifndef RSJ_STORAGE_DECODED_NODE_H_
#define RSJ_STORAGE_DECODED_NODE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "geom/rect_block.h"
#include "rtree/node.h"

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

}  // namespace rsj

#endif  // RSJ_STORAGE_DECODED_NODE_H_
