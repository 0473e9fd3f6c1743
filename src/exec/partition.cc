#include "exec/partition.h"

#include <utility>

#include "geom/simd_kernels.h"
#include "join/predicate.h"

namespace rsj {

namespace {

// The xl-sorted form of a fetched decode (§4.2), shared with every other
// reader of the pool. As in the engine's accessors (join/node_accessor.h),
// its sort is charged only by the fetch that decoded the page.
const DecodedNode::Sorted& SortedForm(const FetchedNode& fetched,
                                      Statistics* stats) {
  const DecodedNode::Sorted& sorted = fetched.decoded->sorted();
  if (fetched.fresh) stats->sort_comparisons.Add(sorted.sort_cost);
  return sorted;
}

// Qualifying entry pairs between two directory nodes, appended to `out` as
// tasks: the plane sweep over both nodes' sorted forms, with the R side
// grown by the predicate expansion, so the filter matches the engine's
// exactly.
void AppendQualifyingPairs(const FetchedNode& fr, const FetchedNode& fs,
                           double expansion, Statistics* stats,
                           std::vector<PartitionTask>* out) {
  const DecodedNode::Sorted& nr = SortedForm(fr, stats);
  const DecodedNode::Sorted& ns = SortedForm(fs, stats);
  RectBlock expanded;
  const RectBlock* block_r = nr.block;
  if (expansion > 0.0) {
    expanded.AssignEntries(std::span<const Entry>(nr.node->entries),
                           expansion);
    block_r = &expanded;
  }
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  SortedIntersectionTestBlocks(*block_r, *ns.block, &stats->join_comparisons,
                               &pairs);
  for (const auto& [i, j] : pairs) {
    out->push_back(PartitionTask{nr.node->entries[i], ns.node->entries[j]});
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
void AppendWindowSplitTasks(const DecodedNode& dir, const Entry& leaf_entry,
                            double expansion, bool dir_is_r,
                            Statistics* stats,
                            std::vector<PartitionTask>* out) {
  const bool expand_dir = dir_is_r && expansion > 0.0;
  const Rect leaf_rect = (!dir_is_r && expansion > 0.0)
                             ? leaf_entry.rect.Expanded(expansion)
                             : leaf_entry.rect;
  // The decoded block is unexpanded; grow a scratch copy only when the
  // directory side carries the expansion.
  RectBlock expanded;
  const RectBlock* block = &dir.block;
  if (expand_dir) {
    expanded.AssignEntries(std::span<const Entry>(dir.node.entries),
                           expansion);
    block = &expanded;
  }
  std::vector<uint32_t> hits;
  CountedOverlapHits(*block, leaf_rect, OverlapSubject::kBlock,
                     &stats->join_comparisons, &hits);
  for (const uint32_t h : hits) {
    const Entry& d = dir.node.entries[h];
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

  const FetchedNode root_r = pool->Fetch(r.file(), r.root_page(), stats);
  const FetchedNode root_s = pool->Fetch(s.file(), s.root_page(), stats);
  if (root_r.decoded->node.is_leaf() || root_s.decoded->node.is_leaf()) {
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
      const FetchedNode child_r = pool->Fetch(r.file(), task.er.ref, stats);
      const FetchedNode child_s = pool->Fetch(s.file(), task.es.ref, stats);
      const bool leaf_r = child_r.decoded->node.is_leaf();
      const bool leaf_s = child_s.decoded->node.is_leaf();
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
        AppendWindowSplitTasks(*child_r.decoded, task.es, expansion,
                               /*dir_is_r=*/true, stats, &next);
      } else {
        AppendWindowSplitTasks(*child_s.decoded, task.er, expansion,
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
