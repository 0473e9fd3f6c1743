#include "join/multiway_join.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "geom/simd_kernels.h"
#include "storage/buffer_pool.h"

namespace rsj {

namespace {

// Tuples per probe batch of the sequential chain: the parallel executor's
// default chunk_capacity, so both run the same batches by default. Probing
// the whole frontier as one batch would hold a second frontier-sized copy
// of its windows.
constexpr size_t kSequentialProbeBatch = 1024;

}  // namespace

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

MultiwayJoinResult RunChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    bool collect_tuples) {
  RSJ_CHECK_MSG(relations.size() >= 2, "chain join needs >= 2 relations");
  for (const JoinRelation& rel : relations) {
    RSJ_CHECK(rel.tree != nullptr && rel.rects != nullptr);
    RSJ_CHECK_MSG(rel.tree->options().page_size ==
                      relations[0].tree->options().page_size,
                  "all relations must share one page size");
  }

  MultiwayJoinResult result;
  // One system buffer: every probe batch revisits the same directory pages,
  // whose decodes stay with them while they are resident.
  BufferPool pool(BufferPool::Options{options.buffer_bytes,
                                      relations[0].tree->options().page_size});

  // Phase 1: pairwise join of the first two relations.
  std::vector<std::vector<uint32_t>> frontier;  // partial tuples
  {
    SpatialJoinEngine engine(*relations[0].tree, *relations[1].tree, options,
                             &pool, &result.stats);
    BatchedCallbackSink sink([&frontier](std::span<const ResultPair> batch) {
      for (const ResultPair& p : batch) frontier.push_back({p.r, p.s});
    });
    engine.Run(&sink);
  }

  // Phase 2..n-1: extend every partial tuple by every match of the next
  // relation for the window of the tuple's last element, one batch of
  // windows at a time.
  std::vector<Rect> windows;
  windows.reserve(kSequentialProbeBatch);
  for (size_t next = 2; next < relations.size(); ++next) {
    const std::vector<Rect>& prev_rects = *relations[next - 1].rects;
    // Every frontier entering a probe phase is live intermediate state;
    // the materialized formulation's peak is the largest of them (the
    // number the parallel executor's bounded stages are measured against).
    result.stats.frontier_peak_tuples = std::max<uint64_t>(
        result.stats.frontier_peak_tuples, frontier.size());
    ChainProbe probe(*relations[next].tree, &pool, options, &result.stats);
    std::vector<std::vector<uint32_t>> extended;
    for (size_t first = 0; first < frontier.size();
         first += kSequentialProbeBatch) {
      const size_t last =
          std::min(frontier.size(), first + kSequentialProbeBatch);
      windows.clear();
      for (size_t t = first; t < last; ++t) {
        RSJ_DCHECK(frontier[t].back() < prev_rects.size());
        windows.push_back(prev_rects[frontier[t].back()]);
      }
      probe.Run(std::span<const Rect>(windows),
                [&](uint32_t i, uint32_t id) {
                  std::vector<uint32_t> longer = frontier[first + i];
                  longer.push_back(id);
                  extended.push_back(std::move(longer));
                });
    }
    frontier = std::move(extended);
  }

  result.tuple_count = frontier.size();
  if (collect_tuples) result.tuples = std::move(frontier);
  return result;
}

}  // namespace rsj
