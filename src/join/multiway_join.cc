#include "join/multiway_join.h"

#include <algorithm>

#include "common/logging.h"
#include "geom/simd_kernels.h"
#include "storage/buffer_pool.h"

namespace rsj {

void ProbeChainWindow(const RTree& tree, PageCache* pages, NodeCache* nodes,
                      const JoinOptions& options, const Rect& query,
                      Statistics* stats, std::vector<uint32_t>* out) {
  // The probe window carries the predicate expansion, like the engine's
  // R-side rectangles: a within-distance probe that only tested raw
  // intersection would drop every match at distance (0, ε].
  const double expansion =
      PredicateExpansion(options.predicate, options.epsilon);
  const Rect window = expansion > 0.0 ? query.Expanded(expansion) : query;
  ++stats->window_queries;
  std::vector<PageId> stack{tree.root_page()};
  std::vector<uint32_t> hits;
  Node local;
  RectBlock local_block;  // SoA copy for the no-cache baseline
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    std::shared_ptr<const DecodedNode> cached;
    const Node* node;
    const RectBlock* block;
    if (nodes != nullptr) {
      cached = nodes->Fetch(tree.file(), page, stats).decoded;
      node = &cached->node;
      block = &cached->block;
    } else {
      // No-cache baseline: decode into a stack-local node, allocation-free
      // after the first iterations.
      pages->Read(tree.file(), page, stats);
      ++stats->node_decodes;
      local = Node::Load(tree.file(), page);
      local_block.AssignEntries(std::span<const Entry>(local.entries), 0.0);
      node = &local;
      block = &local_block;
    }
    if (node->is_leaf()) {
      // Exact predicate on data entries; the query rectangle is the R side
      // of the consecutive pair. Intersection and within-distance run as
      // batch kernels over the node's (unexpanded) block; the containment
      // predicates stay scalar.
      if (options.predicate == JoinPredicate::kIntersects) {
        CountedOverlapHits(*block, query, OverlapSubject::kQuery,
                           &stats->join_comparisons, &hits);
        for (const uint32_t h : hits) out->push_back(node->entries[h].ref);
      } else if (options.predicate == JoinPredicate::kWithinDistance) {
        CountedWithinDistanceHits(*block, query, options.epsilon,
                                  &stats->join_comparisons, &hits);
        for (const uint32_t h : hits) out->push_back(node->entries[h].ref);
      } else {
        for (const Entry& e : node->entries) {
          if (EvaluatePredicateCounted(options.predicate, options.epsilon,
                                       query, e.rect,
                                       &stats->join_comparisons)) {
            out->push_back(e.ref);
          }
        }
      }
    } else {
      // Directory descent: one window against the whole block. Ascending
      // hit order matches the scalar loop's push order, so the DFS visits
      // pages in the same sequence.
      CountedOverlapHits(*block, window, OverlapSubject::kBlock,
                         &stats->join_comparisons, &hits);
      for (const uint32_t h : hits) stack.push_back(node->entries[h].ref);
    }
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
  BufferPool pool(
      BufferPool::Options{options.buffer_bytes,
                          relations[0].tree->options().page_size},
      &result.stats);
  // One decode cache over the system buffer: probe phases revisit the same
  // directory pages for every tuple of the frontier, so keeping the
  // decodes hot removes almost all repeated decoding.
  NodeCache node_cache(&pool, NodeCache::Options{});

  // Phase 1: pairwise join of the first two relations.
  std::vector<std::vector<uint32_t>> frontier;  // partial tuples
  {
    SpatialJoinEngine engine(*relations[0].tree, *relations[1].tree, options,
                             &pool, &result.stats, &node_cache);
    BatchedCallbackSink sink([&frontier](std::span<const ResultPair> batch) {
      for (const ResultPair& p : batch) frontier.push_back({p.r, p.s});
    });
    engine.Run(&sink);
  }

  // Phase 2..n-1: extend every partial tuple by window-probing the next
  // relation with the rectangle of the tuple's last element.
  for (size_t next = 2; next < relations.size(); ++next) {
    const JoinRelation& rel = relations[next];
    const std::vector<Rect>& prev_rects = *relations[next - 1].rects;
    // Every frontier entering a probe phase is live intermediate state;
    // the materialized formulation's peak is the largest of them (the
    // number the streaming pipeline exists to beat).
    result.stats.frontier_peak_tuples = std::max<uint64_t>(
        result.stats.frontier_peak_tuples, frontier.size());
    std::vector<std::vector<uint32_t>> extended;
    std::vector<uint32_t> matches;
    for (const std::vector<uint32_t>& tuple : frontier) {
      matches.clear();
      RSJ_DCHECK(tuple.back() < prev_rects.size());
      ProbeChainWindow(*rel.tree, &pool, &node_cache, options,
                       prev_rects[tuple.back()], &result.stats, &matches);
      for (const uint32_t id : matches) {
        std::vector<uint32_t> longer = tuple;
        longer.push_back(id);
        extended.push_back(std::move(longer));
      }
    }
    frontier = std::move(extended);
  }

  result.tuple_count = frontier.size();
  if (collect_tuples) result.tuples = std::move(frontier);
  return result;
}

}  // namespace rsj
