#include "exec/partition.h"

#include <utility>

#include "geom/plane_sweep.h"
#include "geom/simd_kernels.h"
#include "join/predicate.h"

namespace rsj {

namespace {

// Qualifying entry pairs between two directory nodes, appended to `out` as
// tasks. Uses the counted sort + plane sweep (the paper's CPU technique);
// the R side carries the predicate expansion, so the filter matches the
// engine's exactly. The sorted sequences are converted to SoA blocks once
// and swept with the batch kernels.
void AppendQualifyingPairs(const Node& nr, const Node& ns, double expansion,
                           Statistics* stats,
                           std::vector<PartitionTask>* out) {
  std::vector<IndexedRect> seq_r;
  seq_r.reserve(nr.entries.size());
  for (uint32_t i = 0; i < nr.entries.size(); ++i) {
    const Rect rect = expansion > 0.0
                          ? nr.entries[i].rect.Expanded(expansion)
                          : nr.entries[i].rect;
    seq_r.push_back(IndexedRect{rect, i});
  }
  std::vector<IndexedRect> seq_s;
  seq_s.reserve(ns.entries.size());
  for (uint32_t j = 0; j < ns.entries.size(); ++j) {
    seq_s.push_back(IndexedRect{ns.entries[j].rect, j});
  }
  SortByLowerXCounted(&seq_r, &stats->sort_comparisons);
  SortByLowerXCounted(&seq_s, &stats->sort_comparisons);
  RectBlock block_r;
  RectBlock block_s;
  block_r.AssignIndexed(std::span<const IndexedRect>(seq_r));
  block_s.AssignIndexed(std::span<const IndexedRect>(seq_s));
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  SortedIntersectionTestBlocks(block_r, block_s, &stats->join_comparisons,
                               &pairs);
  for (const auto& [i, j] : pairs) {
    out->push_back(PartitionTask{nr.entries[i], ns.entries[j]});
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
                                 size_t target_tasks, PageCache* cache,
                                 Statistics* stats) {
  PartitionPlan plan;
  const double expansion =
      PredicateExpansion(options.predicate, options.epsilon);

  const auto root_r = cache->Fetch(r.file(), r.root_page(), stats).decoded;
  const auto root_s = cache->Fetch(s.file(), s.root_page(), stats).decoded;
  if (root_r->node.is_leaf() || root_s->node.is_leaf()) {
    plan.degenerate = true;
    return plan;
  }
  // Depth-adaptive refinement: while the task list is too short, replace
  // every directory-directory task by its qualifying child pairs. Tasks
  // that reach a data node on either side are final — they move to
  // `final_tasks` and are never fetched again.
  std::vector<PartitionTask> final_tasks;
  std::vector<PartitionTask> frontier;
  AppendQualifyingPairs(root_r->node, root_s->node, expansion, stats,
                        &frontier);
  while (!frontier.empty() &&
         final_tasks.size() + frontier.size() < target_tasks) {
    std::vector<PartitionTask> next;
    next.reserve(frontier.size() * 2);
    bool expanded_any = false;
    for (const PartitionTask& task : frontier) {
      const auto child_r = cache->Fetch(r.file(), task.er.ref, stats).decoded;
      const auto child_s = cache->Fetch(s.file(), task.es.ref, stats).decoded;
      if (child_r->node.is_leaf() && child_s->node.is_leaf()) {
        final_tasks.push_back(task);
        continue;
      }
      expanded_any = true;
      if (!child_r->node.is_leaf() && !child_s->node.is_leaf()) {
        AppendQualifyingPairs(child_r->node, child_s->node, expansion, stats,
                              &next);
      } else if (child_s->node.is_leaf()) {
        // Unequal heights (§4.4): keep splitting the still-directory side
        // so a pair that reached the leaf level early does not stay one
        // oversized window-query task.
        AppendWindowSplitTasks(*child_r, task.es, expansion,
                               /*dir_is_r=*/true, stats, &next);
      } else {
        AppendWindowSplitTasks(*child_s, task.er, expansion,
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
