#include "join/multiway_join.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "geom/simd_kernels.h"
#include "storage/buffer_pool.h"

namespace rsj {

ChainProbe::ChainProbe(const RTree& tree, BufferPool* pages,
                       const JoinOptions& options, Statistics* stats)
    : tree_(tree),
      pages_(pages),
      predicate_(options.predicate),
      epsilon_(options.epsilon),
      expansion_(PredicateExpansion(options.predicate, options.epsilon)),
      stats_(stats) {
  RSJ_CHECK_MSG(pages != nullptr, "a chain probe needs a buffer pool");
}

ChainProbe::Level& ChainProbe::Scratch(size_t depth) {
  while (levels_.size() <= depth) {
    levels_.push_back(std::make_unique<Level>());
  }
  return *levels_[depth];
}

void ChainProbe::RunBatch(std::span<const Rect> queries, Match emit) {
  stats_->window_queries += queries.size();
  if (queries.empty()) return;
  queries_ = queries;

  // One sort by (xl, position) per batch. Growing every window by the same
  // margin keeps the order, so the root's block is xl-sorted.
  Level& root = Scratch(0);
  std::vector<uint32_t>& order = root.query;
  order.resize(queries.size());
  std::iota(order.begin(), order.end(), 0u);
  uint64_t sort_cost = 0;
  std::sort(order.begin(), order.end(),
            [&queries, &sort_cost](uint32_t a, uint32_t b) {
              ++sort_cost;
              const Coord xa = queries[a].xl;
              const Coord xb = queries[b].xl;
              return xa < xb || (xa == xb && a < b);
            });
  stats_->sort_comparisons.Add(sort_cost);
  root.windows.Clear();
  for (uint32_t rank = 0; rank < order.size(); ++rank) {
    const Rect& query = queries[order[rank]];
    root.windows.PushBack(
        expansion_ > 0.0 ? query.Expanded(expansion_) : query, rank);
  }
  Descend(tree_.root_page(), 0, emit);
  queries_ = {};
}

void ChainProbe::Descend(PageId page, size_t depth, Match emit) {
  // The decode stays alive in this frame even if the pool evicts its page.
  const FetchedNode fetched = pages_->Fetch(tree_.file(), page, stats_);
  const DecodedNode::Sorted& sorted = fetched.decoded->sorted();
  // §4.2: a page is sorted right after it is read from disk.
  if (!fetched.page_hit) stats_->sort_comparisons.Add(sorted.sort_cost);
  const Node& node = *sorted.node;

  Level& level = Scratch(depth);
  RSJ_DCHECK(IsSortedByLowerXBlock(level.windows));
  level.pairs.clear();
  SortedIntersectionTestBlocks(level.windows, *sorted.block,
                               &stats_->join_comparisons, &level.pairs);

  if (node.is_leaf()) {
    // The sweep's pairs are the intersection predicate's matches; every
    // other predicate is tested on the unexpanded window, as the pairwise
    // engine does at its leaves.
    for (const auto& [rank, slot] : level.pairs) {
      const uint32_t i = level.query[rank];
      const Entry& entry = node.entries[slot];
      if (predicate_ != JoinPredicate::kIntersects &&
          !EvaluatePredicateCounted(predicate_, epsilon_, queries_[i],
                                    entry.rect, &stats_->join_comparisons)) {
        continue;
      }
      emit.call(emit.fn, i, entry.ref);
    }
    return;
  }

  // Group the windows per child with a counting pass. The sweep emits the
  // pairs of one entry in ascending window rank, so each group keeps the
  // windows' xl order.
  const size_t n = node.entries.size();
  level.begin.assign(n + 1, 0);
  for (const auto& pair : level.pairs) ++level.begin[pair.second + 1];
  for (size_t e = 0; e < n; ++e) level.begin[e + 1] += level.begin[e];
  level.cursor.assign(level.begin.begin(), level.begin.end() - 1);
  level.ranks.resize(level.pairs.size());
  for (const auto& [rank, slot] : level.pairs) {
    level.ranks[level.cursor[slot]++] = rank;
  }

  Level& child = Scratch(depth + 1);
  for (uint32_t e = 0; e < n; ++e) {
    const uint32_t first = level.begin[e];
    const uint32_t last = level.begin[e + 1];
    if (first == last) continue;
    child.windows.Clear();
    child.query.clear();
    for (uint32_t k = first; k < last; ++k) {
      const uint32_t rank = level.ranks[k];
      child.windows.PushBack(level.windows.RectAt(rank), k - first);
      child.query.push_back(level.query[rank]);
    }
    Descend(node.entries[e].ref, depth + 1, emit);
  }
}

}  // namespace rsj
