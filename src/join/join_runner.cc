#include "join/join_runner.h"

#include <utility>

#include "common/logging.h"
#include "exec/parallel_executor.h"

namespace rsj {

RTree BuildRTree(PagedFile* file, std::span<const Rect> rects,
                 const RTreeOptions& options) {
  RTree tree(file, options);
  for (uint32_t i = 0; i < rects.size(); ++i) {
    tree.Insert(rects[i], i);
  }
  return tree;
}

namespace {

// Both entries are the one-thread run of the parallel executor.
JoinRunResult RunOneThread(const RTree& r, const RTree& s,
                           const JoinOptions& options,
                           const ParallelExecutorOptions& exec,
                           uint64_t* modeled_elapsed_micros) {
  ParallelJoinResult run = RunParallelSpatialJoin(r, s, options, exec);
  if (modeled_elapsed_micros != nullptr) {
    *modeled_elapsed_micros = run.modeled_elapsed_micros;
  }
  JoinRunResult result;
  result.pair_count = run.pair_count;
  result.stats = run.total_stats;
  result.chunks = std::move(run.chunks);
  return result;
}

}  // namespace

JoinRunResult RunSpatialJoinWithIo(const RTree& r, const RTree& s,
                                   const JoinOptions& options, IoScheduler* io,
                                   bool prefetch, size_t prefetch_ahead,
                                   bool collect_pairs,
                                   uint64_t* modeled_elapsed_micros) {
  RSJ_CHECK(io != nullptr);
  ParallelExecutorOptions exec;
  exec.collect_pairs = collect_pairs;
  exec.io_scheduler = io;
  exec.prefetch_ahead = prefetch ? prefetch_ahead : 0;
  return RunOneThread(r, s, options, exec, modeled_elapsed_micros);
}

JoinRunResult RunSpatialJoin(const RTree& r, const RTree& s,
                             const JoinOptions& options, bool collect_pairs) {
  ParallelExecutorOptions exec;
  exec.collect_pairs = collect_pairs;
  return RunOneThread(r, s, options, exec, nullptr);
}

}  // namespace rsj
