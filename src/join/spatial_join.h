// The spatial join engine: synchronized R*-tree traversal with the paper's
// CPU- and I/O-tuning techniques (§4).
//
// One engine implements the whole algorithm ladder; `JoinOptions` selects
// the variant:
//
//   SJ1  nested-loop pair finding, discovery-order page reads      (§4.1)
//   SJ2  + search-space restriction to the parent intersection     (§4.2)
//   (I)  sorted nodes + plane sweep, unrestricted (Table 4 v. I)   (§4.2)
//   SJ3  restriction + sweep; sweep order = read schedule          (§4.3)
//   SJ4  SJ3 + pinning of the highest-degree child page            (§4.3)
//   SJ5  SJ4 with a z-order read schedule                          (§4.3)
//
// When the trees have different heights the traversal reaches (directory,
// data-node) pairs; the remaining subtrees are probed with window queries
// under HeightPolicy (a), (b) or (c) (§4.4). Under (b) each subtree is
// traversed once for the batch of data-node entries that qualify for it:
// the sweep algorithms answer the batch with a `WindowProbe`
// (join/window_probe.h), which plane-sweeps it against every node of the
// subtree as they sweep node pairs (§4.2); SJ1 and SJ2 keep the paper's
// nested loops, data entries outer and the batch inner.
//
// All page requests go through the `BufferPool` of the run's execution
// context (exec/exec_context.h; one LRU of buffer_bytes for the paper's
// one-thread join) and all executed floating point comparisons are
// charged to `Statistics`, which therefore carries exactly the
// measurements the paper's tables report.
//
// Results leave the engine through a batched `ResultSink` (see
// exec/result_sink.h); the hot loops never make a per-pair indirect call.

#ifndef RSJ_JOIN_SPATIAL_JOIN_H_
#define RSJ_JOIN_SPATIAL_JOIN_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "exec/result_sink.h"
#include "geom/indexed_rect.h"
#include "join/join_options.h"
#include "join/node_accessor.h"
#include "join/window_probe.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/statistics.h"

namespace rsj {

class Prefetcher;

class SpatialJoinEngine {
 public:
  // `pool` and `stats` must outlive the engine; both trees must use the
  // same page size (the paper's setting). The accessors read pages in
  // place and share `pool`'s take-overs (storage/buffer_pool.h): a page
  // the coordinator or another worker took over is not charged a decode or
  // a sort again while it stays resident.
  SpatialJoinEngine(const RTree& r, const RTree& s, const JoinOptions& options,
                    BufferPool* pool, Statistics* stats);

  // Executes the MBR-spatial-join R ⋈ S into `sink` (flushed on return).
  void Run(ResultSink* sink);

  // Fine-grained partitioned execution, used by the parallel executor
  // (exec/parallel_executor.h): Begin fetches both roots (counted, like a
  // processor of a parallel R-tree would) and fixes the z-order universe;
  // ProcessPartition then joins the subtree pair under one qualifying
  // (R-entry, S-entry) pair. The sink is NOT flushed per partition — the
  // caller flushes once per worker.
  void BeginPartitionedRun();
  void ProcessPartition(const Entry& er, const Entry& es, ResultSink* sink);

  // Streams every computed read schedule (§4.3 sweep or z-order, and the
  // §4.4 window-query subtree order) into `prefetcher` just before
  // executing it, so the async I/O subsystem (src/io/) fetches the pages
  // ahead of the traversal. nullptr (the default) disables prefetching.
  void set_prefetcher(const Prefetcher* prefetcher) {
    prefetcher_ = prefetcher;
  }

 private:
  // A qualifying pair of entry slots (in nr's entries, in ns's).
  using EntryPair = std::pair<uint32_t, uint32_t>;

  // One SJ5 read-schedule key: the z-value of a pair's intersection.
  struct ZScheduled {
    uint32_t zvalue;
    EntryPair pair;
  };

  // The pin bookkeeping of one side of a read schedule (SJ4/SJ5, height
  // policy (c)): slot k's pairs, as schedule positions in schedule order,
  // at order[begin[k], begin[k + 1]), and left[k], how many of them are
  // not done yet. Two counting passes build it, so choosing every pin and
  // draining every pinned page is O(pairs + slots).
  struct SlotPairs {
    std::vector<uint32_t> begin;
    std::vector<uint32_t> order;
    std::vector<uint32_t> left;

    // Keyed by each pair's first (R, or the deeper tree's) slot, or by its
    // second; `slots` bounds the key.
    void Build(std::span<const EntryPair> pairs, size_t slots, bool by_first);
  };

  // Buffers of one recursion depth, reused by every node pair processed at
  // that depth, so the traversal allocates nothing per node pair once they
  // have grown to node size. A level's buffers stay in use while the levels
  // below it run (the schedule being executed, the query batch handed
  // down), so each slot is allocated once and never moves.
  struct DepthScratch {
    // Restricted entry subsets (SJ2-SJ5), written by the marking kernel;
    // their storage grows to the largest node marked at this depth.
    RectBlock marked_first;
    RectBlock marked_second;
    std::vector<EntryPair> pairs;  // qualifying pairs = read schedule
    std::vector<ZScheduled> zorder;
    std::vector<bool> done;     // pairs drained by a pin; (b): subtrees run
    SlotPairs pins_first;       // pinning (SJ4/SJ5, (c)): per first slot
    SlotPairs pins_second;      // pinning (SJ4/SJ5): per second slot
    std::vector<PageId> pages;  // §4.4 prefetch schedule
    // (b): the pairs grouped per subtree, subtree d's batch at
    // batches[begin[d], begin[d + 1]); `by_leaf` is the sweep algorithms'
    // first counting pass.
    std::vector<EntryPair> by_leaf;
    std::vector<EntryPair> batches;
    std::vector<uint32_t> begin;
    std::vector<Rect> windows;  // (b), sweep: the batch handed to the probe
    RectBlock batch;            // (b), SJ1/SJ2: the batch of the next depth
  };

  // The slot of recursion depth `depth`, created on first use.
  DepthScratch& Scratch(size_t depth);

  void Emit(uint32_t r_ref, uint32_t s_ref);

  // Emits a §4.4 match of a deep-tree entry and a window (a data-node entry
  // of the other tree) in (R, S) order.
  void EmitWindowMatch(uint32_t entry_ref, uint32_t window_ref,
                       bool r_is_deep) {
    if (r_is_deep) {
      Emit(entry_ref, window_ref);
    } else {
      Emit(window_ref, entry_ref);
    }
  }

  // R-side rectangles are grown by the predicate expansion (ε for the
  // within-distance join) so that intersection remains a superset filter.
  Rect RSideRect(const Rect& rect) const {
    return expansion_ > 0.0 ? rect.Expanded(expansion_) : rect;
  }

  // Pair finding between two nodes into `slot->pairs`, honoring the
  // configured CPU technique (nested loops / restriction / plane sweep).
  // `rect` is the intersection of the parent rectangles. Either node may be
  // the R side: its predicate expansion is already in that side's kernel
  // rectangles. The loops run as batch kernels over the visited nodes'
  // rectangle columns (geom/simd_kernels.h), charging exactly the scalar
  // comparison counts.
  void QualifyingPairs(const VisitedNode& first, const VisitedNode& second,
                       const Rect& rect, DepthScratch* slot);

  // Writes the rectangles of `block` that intersect `rect` into `*marked`
  // in one kernel pass (in block order — sorted order for the sweep
  // algorithms since the accessor sorts on read). The block's expansion
  // carries over.
  void MarkEntriesBlock(const RectColumns& block, const Rect& rect,
                        RectBlock* marked);

  // Reorders `slot->pairs` into the z-order read schedule (SJ5 only).
  void ApplyZOrderSchedule(const NodeView& nr, const NodeView& ns,
                           DepthScratch* slot);

  // Synchronized recursion on a node pair, both visited at `depth`.
  void JoinNodes(const VisitedNode& r, const VisitedNode& s, const Rect& rect,
                 size_t depth);

  // Visits both child pages of a directory-level pair at `depth` and
  // recurses.
  void ProcessChildPair(const Entry& er, const Entry& es, size_t depth);

  // Executes the read schedule `slot->pairs` of a directory-directory pair,
  // with pinning for SJ4/SJ5; the children run at `depth + 1`.
  void ExecuteDirectorySchedule(const NodeView& nr, const NodeView& ns,
                                DepthScratch* slot, size_t depth);

  // §4.4 — different heights: `dir` (from the deeper tree, accessed via
  // `deep`) against data node `leaf`, both visited at `depth`. `r_is_deep`
  // preserves the (R, S) orientation of emitted pairs.
  void WindowPhase(NodeAccessor* deep, const VisitedNode& dir,
                   const VisitedNode& leaf, const Rect& rect, bool r_is_deep,
                   size_t depth);

  // Policy (a)/(c) primitive: one window query in the subtree under `page`,
  // visited at `depth`.
  void SingleWindowQuery(NodeAccessor* deep, PageId page, const Entry& query,
                         bool r_is_deep, size_t depth);

  // Policy (b) primitive of SJ1 and SJ2: the whole `batch` answered in one
  // traversal of the subtree under `page`, visited at `depth`, with the
  // paper's nested loops. The batch holds R-side rectangles (grown by the
  // expansion when the windows are R) and, as index_at, each window's slot
  // in `windows`, the data node whose entries they are.
  void BatchedWindowQuery(NodeAccessor* deep, PageId page,
                          const NodeView& windows, const RectBlock& batch,
                          bool r_is_deep, size_t depth);

  JoinOptions options_;
  NodeAccessor acc_r_;  // carries the predicate expansion in its blocks
  NodeAccessor acc_s_;
  Statistics* stats_;
  WindowProbe probe_;  // (b) on the deeper tree, sweep algorithms
  std::vector<uint32_t> hits_;  // reusable kernel hit buffer
  std::vector<std::unique_ptr<DepthScratch>> scratch_;  // one per depth
  double expansion_ = 0.0;         // R-side growth for the predicate filter
  Rect universe_ = Rect::Empty();  // z-value reference frame
  ResultSink* sink_ = nullptr;     // output of the run in progress
  const Prefetcher* prefetcher_ = nullptr;  // optional read-ahead (src/io/)
};

}  // namespace rsj

#endif  // RSJ_JOIN_SPATIAL_JOIN_H_
