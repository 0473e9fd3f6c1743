#include "exec/partition.h"

#include <utility>

#include "geom/simd_kernels.h"
#include "join/predicate.h"

namespace rsj {

namespace {

// A coordinator request: page `id` viewed in place, and whether the
// request took it over (BufferPool::Take).
struct Fetched {
  NodeView node;
  bool took_over = false;
};

Fetched FetchNode(const RTree& tree, PageId id, BufferPool* pool,
                  Statistics* stats) {
  const bool took_over = pool->Take(tree.file(), id, stats);
  return Fetched{ViewNode(tree.file(), id), took_over};
}

// Qualifying entry pairs between two directory nodes, appended to `out` as
// tasks: the plane sweep over both nodes in lower-x order, with the R side
// grown by the predicate expansion, so the filter matches the engine's
// exactly.
void AppendQualifyingPairs(const Fetched& fr, const Fetched& fs,
                           double expansion, Statistics* stats,
                           std::vector<PartitionTask>* out) {
  // The sorts are charged only by the requests that took the pages over,
  // as in the engine's accessors (join/node_accessor.h).
  NodeCopy sorted_r;
  NodeCopy sorted_s;
  NodeCopy grown_r;
  ComparisonCounter* const sorts = &stats->sort_comparisons;
  const NodeView nr =
      SortedByLowerX(fr.node, &sorted_r, fr.took_over ? sorts : nullptr);
  const NodeView ns =
      SortedByLowerX(fs.node, &sorted_s, fs.took_over ? sorts : nullptr);
  RectColumns rects_r = nr.entries.rects();
  if (expansion > 0.0) {
    grown_r.AssignExpanded(nr.entries, expansion);
    rects_r = grown_r.columns().rects();
  }
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  SortedIntersectionTestBlocks(rects_r, ns.entries.rects(),
                               &stats->join_comparisons, &pairs);
  for (const auto& [i, j] : pairs) {
    out->push_back(PartitionTask{nr.entries.entry(i), ns.entries.entry(j)});
  }
}

// §4.4 split of a coarse task: one side of the pair has reached its data
// nodes while `dir` (the other side's child node) is still a directory.
// Instead of leaving one oversized window-query task, descend the
// directory side alone: every entry `d` of `dir` whose (expansion-grown,
// on the R side) rectangle intersects the data-node entry becomes its own
// task. Lossless for the same reason the synchronized filter is — a result
// below (d, leaf_entry) needs intersecting rectangles at every ancestor
// level — and disjoint because the subtrees under distinct `d` are.
void AppendWindowSplitTasks(const NodeView& dir, const Entry& leaf_entry,
                            double expansion, bool dir_is_r,
                            Statistics* stats,
                            std::vector<PartitionTask>* out) {
  const bool expand_dir = dir_is_r && expansion > 0.0;
  const Rect leaf_rect = (!dir_is_r && expansion > 0.0)
                             ? leaf_entry.rect.Expanded(expansion)
                             : leaf_entry.rect;
  // The page's rectangles are unexpanded; grow a copy only when the
  // directory side carries the expansion.
  NodeCopy grown;
  RectColumns rects = dir.entries.rects();
  if (expand_dir) {
    grown.AssignExpanded(dir.entries, expansion);
    rects = grown.columns().rects();
  }
  std::vector<uint32_t> hits;
  CountedOverlapHits(rects, leaf_rect, OverlapSubject::kBlock,
                     &stats->join_comparisons, &hits);
  for (const uint32_t h : hits) {
    const Entry d = dir.entries.entry(h);
    out->push_back(dir_is_r ? PartitionTask{d, leaf_entry}
                            : PartitionTask{leaf_entry, d});
  }
}

}  // namespace

PartitionPlan BuildPartitionPlan(const RTree& r, const RTree& s,
                                 const JoinOptions& options,
                                 size_t target_tasks, BufferPool* pool,
                                 Statistics* stats) {
  PartitionPlan plan;
  const double expansion =
      PredicateExpansion(options.predicate, options.epsilon);

  const Fetched root_r = FetchNode(r, r.root_page(), pool, stats);
  const Fetched root_s = FetchNode(s, s.root_page(), pool, stats);
  if (root_r.node.is_leaf() || root_s.node.is_leaf()) {
    plan.degenerate = true;
    return plan;
  }
  // Depth-adaptive refinement: while the task list is too short, replace
  // every directory-directory task by its qualifying child pairs. Tasks
  // that reach a data node on either side are final — they move to
  // `final_tasks` and are never fetched again.
  std::vector<PartitionTask> final_tasks;
  std::vector<PartitionTask> frontier;
  AppendQualifyingPairs(root_r, root_s, expansion, stats, &frontier);
  while (!frontier.empty() &&
         final_tasks.size() + frontier.size() < target_tasks) {
    std::vector<PartitionTask> next;
    next.reserve(frontier.size() * 2);
    bool expanded_any = false;
    for (const PartitionTask& task : frontier) {
      const Fetched child_r = FetchNode(r, task.er.ref, pool, stats);
      const Fetched child_s = FetchNode(s, task.es.ref, pool, stats);
      const bool leaf_r = child_r.node.is_leaf();
      const bool leaf_s = child_s.node.is_leaf();
      if (leaf_r && leaf_s) {
        final_tasks.push_back(task);
        continue;
      }
      expanded_any = true;
      if (!leaf_r && !leaf_s) {
        AppendQualifyingPairs(child_r, child_s, expansion, stats, &next);
      } else if (leaf_s) {
        // Unequal heights (§4.4): keep splitting the still-directory side
        // so a pair that reached the leaf level early does not stay one
        // oversized window-query task.
        AppendWindowSplitTasks(child_r.node, task.es, expansion,
                               /*dir_is_r=*/true, stats, &next);
      } else {
        AppendWindowSplitTasks(child_s.node, task.er, expansion,
                               /*dir_is_r=*/false, stats, &next);
      }
    }
    frontier = std::move(next);
    if (!expanded_any) break;
    ++plan.depth;
  }
  plan.tasks = std::move(final_tasks);
  plan.tasks.insert(plan.tasks.end(), frontier.begin(), frontier.end());
  return plan;
}

}  // namespace rsj
