// Multi-way spatial joins — §2.1: "if we consider more than two spatial
// relations for processing a join. The problem ... is similarly defined and
// its solution can make use of the techniques that will be presented".
//
// The chain join
//
//     R1 ⋈ R2 ⋈ ... ⋈ Rn   with   Mbr(a_i) ∩ Mbr(a_{i+1}) ≠ ∅
//
// uses exactly those techniques: the first two relations run through the
// synchronized-traversal engine (SJ4 by default), and every further
// relation is probed with the windows of the current tuples' last
// elements. The chain executor (exec/multiway_executor.h) runs the join at
// every thread count, RunChainSpatialJoin included; this header holds what
// it needs from the join layer: a chain's relations and the probe of one
// phase. A probe takes a batch of windows, sorts it by lower x once and
// answers all of it in one descent of the relation's R*-tree,
// plane-sweeping the batch against every node's xl-sorted entries (§4.2) —
// the §4.4 idea of answering a subtree's window queries in one traversal.

#ifndef RSJ_JOIN_MULTIWAY_JOIN_H_
#define RSJ_JOIN_MULTIWAY_JOIN_H_

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

// One relation of a multi-way join: the index plus the rectangles backing
// the object ids stored in it (needed to seed the probe windows).
struct JoinRelation {
  const RTree* tree = nullptr;
  const std::vector<Rect>* rects = nullptr;
};

// The probe of one chain-join phase, batched: answers a batch of windows on
// `tree` in one descent. The batch is sorted by (xl, position) once, into a
// block of windows grown by the predicate expansion (ε for within-distance,
// as the pairwise engine grows its R side). At every node the windows that
// reached it are plane-swept against the node's xl-sorted entries, so each
// node is fetched once per batch and a window meets an entry only when their
// x-ranges overlap. A directory node hands each child the windows that hit
// it, still in xl order; at a leaf the sweep's pairs are the matches of the
// intersection predicate, and the other predicates test each of them
// exactly on the unexpanded window.
//
// Every page comes from `pages` (one Fetch each, charged to `stats`) in the
// sorted form of its resident decode; a physical read charges the page's
// sort to `sort_comparisons` (§4.2). The batch sort charges one
// `sort_comparisons` per comparator call, the sweeps and exact tests
// `join_comparisons`, and every window one `window_queries`. The
// per-depth scratch persists across batches, so a batch allocates nothing
// once it has grown.
class ChainProbe {
 public:
  // All arguments must outlive the probe; `pages` is required.
  ChainProbe(const RTree& tree, BufferPool* pages, const JoinOptions& options,
             Statistics* stats);

  ChainProbe(const ChainProbe&) = delete;
  ChainProbe& operator=(const ChainProbe&) = delete;

  // Calls emit(i, id) for every data entry `id` of the tree that satisfies
  // the predicate against queries[i], the R side of the pair, in sweep
  // order. `queries` must stay valid during the call, and `emit` may run
  // other probes but not this one.
  template <typename Emit>
  void Run(std::span<const Rect> queries, Emit&& emit) {
    using Fn = std::remove_reference_t<Emit>;
    RunBatch(queries,
             Match{[](void* fn, uint32_t i, uint32_t id) {
                     (*static_cast<Fn*>(fn))(i, id);
                   },
                   const_cast<void*>(
                       static_cast<const void*>(std::addressof(emit)))});
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
    // The sweep's (rank, entry slot) pairs.
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    // Directory nodes: the ranks grouped per entry slot, ascending within
    // each group; slot e's group is ranks[begin[e], begin[e + 1]).
    std::vector<uint32_t> begin;
    std::vector<uint32_t> cursor;
    std::vector<uint32_t> ranks;
  };

  void RunBatch(std::span<const Rect> queries, Match emit);
  void Descend(PageId page, size_t depth, Match emit);
  Level& Scratch(size_t depth);

  const RTree& tree_;
  BufferPool* const pages_;
  const JoinPredicate predicate_;
  const double epsilon_;
  const double expansion_;
  Statistics* const stats_;
  std::span<const Rect> queries_;  // the batch of the running call
  std::vector<std::unique_ptr<Level>> levels_;
};

}  // namespace rsj

#endif  // RSJ_JOIN_MULTIWAY_JOIN_H_
