// Depth-adaptive declustering of a spatial join into subtree-pair tasks.
//
// The seed parallel join declustered only at the root level: with a skewed
// root fan-out a handful of qualifying root pairs starved most workers. The
// partitioner here descends the synchronized traversal — exactly the
// engine's qualifying-pair filter, level by level — until at least
// `target_tasks` qualifying subtree pairs exist (ISSUE: k × num_threads),
// so even heavily skewed trees split into enough independent units for the
// task pool (exec/task_pool.h), which deals them out in blocks and lets
// idle workers steal, to balance.
//
// Each task is one qualifying (R directory entry, S directory entry) pair;
// joining the subtrees below every task and unioning the outputs is exactly
// the sequential result, because the qualifying filter is lossless (a pair
// of descendants can only intersect if every pair of ancestors does) and
// every descendant pair is generated under exactly one task.
//
// Subtree pairs where *both* sides reach their data nodes are final. When
// only one side hits a data node early (unequal tree heights), the
// partitioner keeps descending the directory side alone, splitting the
// §4.4 window-query phase into per-subtree tasks instead of leaving one
// oversized coarse task per pair; the engine's window-query machinery
// still handles the residual height difference inside each task.

#ifndef RSJ_EXEC_PARTITION_H_
#define RSJ_EXEC_PARTITION_H_

#include <cstddef>
#include <vector>

#include "join/join_options.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/statistics.h"

namespace rsj {

// One unit of parallel work: join the subtree under `er` (from R) with the
// subtree under `es` (from S).
struct PartitionTask {
  Entry er;
  Entry es;
};

struct PartitionPlan {
  std::vector<PartitionTask> tasks;
  // Directory levels descended below the roots (0 = root declustering).
  int depth = 0;
  // True when a root is a leaf: no directory entries to decluster on; the
  // caller should fall back to the sequential engine.
  bool degenerate = false;
};

// Builds the task list by synchronized descent. Coordinator page requests
// go through `pool` (warming it for the workers) and all coordinator costs
// are charged to `stats`. It reads directory pages in place (sorting a
// page out of lower-x order into its own copy), and its requests take them
// over (BufferPool::Take), so neither the workers nor a later plan over
// the same pool charge those nodes' decodes or sorts again while they stay
// resident.
PartitionPlan BuildPartitionPlan(const RTree& r, const RTree& s,
                                 const JoinOptions& options,
                                 size_t target_tasks, BufferPool* pool,
                                 Statistics* stats);

}  // namespace rsj

#endif  // RSJ_EXEC_PARTITION_H_
