// The batched window probe: a batch of windows answered in one descent of
// an R*-tree, plane-sweeping the windows against each node's xl-sorted
// entries (§4.2) — the §4.4 idea of answering a subtree's window queries
// in one traversal. Two users share it:
//
//   - the chain executor (exec/multiway_executor.h): one probe per chain
//     phase answers the windows of a batch of tuples' last elements on the
//     next relation's tree, from its root;
//   - the pairwise engine (join/spatial_join.h): under height policy (b),
//     the sweep algorithms answer each subtree's batch of data-node
//     entries from the subtree root.

#ifndef RSJ_JOIN_WINDOW_PROBE_H_
#define RSJ_JOIN_WINDOW_PROBE_H_

#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "geom/rect_block.h"
#include "join/join_options.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/statistics.h"

namespace rsj {

// Answers batches of windows on `tree` in one descent each. A batch enters
// as a block of windows in (xl, position) order: Run sorts it once, RunSorted
// takes it as given. At every node the windows that reached it are
// plane-swept against the node's xl-sorted entries, so each node is fetched
// once per batch and a window meets an entry only when their x-ranges
// overlap. A directory node hands each child the windows that hit it, still
// in xl order; at a leaf the sweep's pairs are the matches of the
// intersection predicate, and the other predicates test each of them
// exactly on the unexpanded rectangles, in (R, S) order.
//
// The windows are one side of the join pair and the tree's entries the
// other. The R side carries the predicate expansion (ε for within-distance,
// as the pairwise engine grows its R side): the windows when they are R,
// else the tree's entries, copied per visited node.
//
// Every page is one request to `pages` (`BufferPool::Take`, charged to
// `stats`), scanned in place, or sorted into the depth's scratch when it
// is out of lower-x order; the request that takes a page over charges its
// sort to `sort_comparisons` (§4.2). Run's batch sort charges one
// `sort_comparisons` per comparator call, the sweeps and exact tests
// `join_comparisons`, and every window one `window_queries`. The per-depth
// scratch persists across batches, so a batch allocates nothing once it
// has grown.
class WindowProbe {
 public:
  // All arguments must outlive the probe; `pages` is required.
  // `windows_are_r` says which side of the pair the windows are.
  WindowProbe(const RTree& tree, BufferPool* pages, const JoinOptions& options,
              Statistics* stats, bool windows_are_r = true);

  WindowProbe(const WindowProbe&) = delete;
  WindowProbe& operator=(const WindowProbe&) = delete;

  // Calls emit(i, id) for every data entry `id` of the tree that satisfies
  // the predicate with queries[i], in sweep order. `queries` must stay
  // valid during the call, and `emit` may run other probes but not this
  // one.
  template <typename Emit>
  void Run(std::span<const Rect> queries, Emit&& emit) {
    RunBatch(tree_.root_page(), queries, /*presorted=*/false, Erase(emit));
  }

  // Run for a batch already in xl order, answered in the subtree under
  // `start` without a batch sort.
  template <typename Emit>
  void RunSorted(PageId start, std::span<const Rect> queries, Emit&& emit) {
    RunBatch(start, queries, /*presorted=*/true, Erase(emit));
  }

 private:
  // The caller's emit, type-erased without an allocation.
  struct Match {
    void (*call)(void*, uint32_t, uint32_t);
    void* fn;
  };

  // What one depth of the descent holds while its node is processed.
  struct Level {
    // The windows that reached the node, xl-sorted, index_at = rank, and
    // each rank's position in the batch.
    RectBlock windows;
    std::vector<uint32_t> query;
    // The node sorted by lower x, when its page is not, and its entries
    // grown by the expansion, when they are the R side.
    NodeCopy sorted;
    NodeCopy grown;
    // The sweep's (rank, entry slot) pairs.
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    // Directory nodes: the ranks grouped per entry slot, ascending within
    // each group; slot e's group is ranks[begin[e], begin[e + 1]).
    std::vector<uint32_t> begin;
    std::vector<uint32_t> cursor;
    std::vector<uint32_t> ranks;
  };

  template <typename Emit>
  static Match Erase(Emit& emit) {
    using Fn = std::remove_reference_t<Emit>;
    return Match{[](void* fn, uint32_t i, uint32_t id) {
                   (*static_cast<Fn*>(fn))(i, id);
                 },
                 const_cast<void*>(
                     static_cast<const void*>(std::addressof(emit)))};
  }

  void RunBatch(PageId start, std::span<const Rect> queries, bool presorted,
                Match emit);
  void Descend(PageId page, size_t depth, Match emit);
  Level& Scratch(size_t depth);

  const RTree& tree_;
  BufferPool* const pages_;
  const JoinPredicate predicate_;
  const double epsilon_;
  const bool windows_are_r_;
  const double window_expansion_;  // the R-side growth, on the windows
  const double entry_expansion_;   // or on the tree's entries
  Statistics* const stats_;
  std::span<const Rect> queries_;  // the batch of the running call
  std::vector<std::unique_ptr<Level>> levels_;
};

}  // namespace rsj

#endif  // RSJ_JOIN_WINDOW_PROBE_H_
