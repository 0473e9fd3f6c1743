// One-call entry points used by examples, tests and benchmarks: build an
// R*-tree from rectangles, run a configured spatial join, get the counters
// back. Both joins are the one-thread run of the parallel executor
// (exec/parallel_executor.h): one partition over one LRU of buffer_bytes,
// the paper's sequential join, on a context that owns its modeled-I/O
// window.

#ifndef RSJ_JOIN_JOIN_RUNNER_H_
#define RSJ_JOIN_JOIN_RUNNER_H_

#include <memory>
#include <span>

#include "join/join_options.h"
#include "join/spatial_join.h"
#include "rtree/rtree.h"
#include "storage/statistics.h"

namespace rsj {

// Inserts `rects` (object ids = positions) into a fresh tree on `file`.
RTree BuildRTree(PagedFile* file, std::span<const Rect> rects,
                 const RTreeOptions& options);

struct JoinRunResult {
  uint64_t pair_count = 0;
  Statistics stats;
  // Filled only when `collect_pairs` was requested: the result as a list
  // of contiguous pair chunks (exec/result_sink.h), handed out exactly as
  // the engine produced them — iterate chunk-wise, or CopyPairs() at API
  // edges that need a flat vector.
  ResultChunkList chunks;
};

// Runs the MBR-spatial-join of two already built trees under `options`,
// with a fresh buffer of options.buffer_bytes.
JoinRunResult RunSpatialJoin(const RTree& r, const RTree& s,
                             const JoinOptions& options,
                             bool collect_pairs = false);

class IoScheduler;

// Runs the join over the asynchronous I/O subsystem (src/io/): the buffer
// pool services misses in modeled disk-array time through `io`, and, when
// `prefetch` is true, the engine streams its §4.3 read schedules into a
// schedule-driven prefetcher (issuing at most `prefetch_ahead` async reads
// per schedule; 0 turns prefetching off). The result's stats carry the
// prefetch/overlap counters; when `modeled_elapsed_micros` is non-null it
// receives the advance of the modeled clock across the run (the join's
// modeled elapsed time). The run must be `io`'s only user. The result
// pairs are identical to RunSpatialJoin's for every configuration.
JoinRunResult RunSpatialJoinWithIo(const RTree& r, const RTree& s,
                                   const JoinOptions& options, IoScheduler* io,
                                   bool prefetch, size_t prefetch_ahead = 32,
                                   bool collect_pairs = false,
                                   uint64_t* modeled_elapsed_micros = nullptr);

// A relation bundled with its index (convenience owner used by examples
// and benchmarks; keeps file + tree lifetimes together).
class IndexedRelation {
 public:
  IndexedRelation(std::span<const Rect> rects, const RTreeOptions& options)
      : file_(std::make_unique<PagedFile>(options.page_size)),
        tree_(BuildRTree(file_.get(), rects, options)) {}

  const RTree& tree() const { return tree_; }

 private:
  std::unique_ptr<PagedFile> file_;
  RTree tree_;
};

}  // namespace rsj

#endif  // RSJ_JOIN_JOIN_RUNNER_H_
