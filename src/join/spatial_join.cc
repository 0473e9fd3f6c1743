#include "join/spatial_join.h"

#include <algorithm>

#include "common/logging.h"
#include "geom/plane_sweep.h"
#include "geom/simd_kernels.h"
#include "geom/zorder.h"
#include "io/prefetcher.h"

namespace rsj {

namespace {

// Stable counting sort of `pairs` by key(pair) < key_count: `*sorted` gets
// item(pair, position) in key order, and `*begin` the key_count + 1 group
// offsets.
template <typename Key, typename Item, typename T>
void CountingSort(std::span<const std::pair<uint32_t, uint32_t>> pairs,
                  size_t key_count, Key key, Item item,
                  std::vector<uint32_t>* begin, std::vector<T>* sorted) {
  std::vector<uint32_t>& offset = *begin;
  offset.assign(key_count + 1, 0);
  for (const auto& p : pairs) ++offset[key(p) + 1];
  for (size_t k = 0; k < key_count; ++k) offset[k + 1] += offset[k];
  sorted->resize(pairs.size());
  for (uint32_t k = 0; k < pairs.size(); ++k) {
    (*sorted)[offset[key(pairs[k])]++] = item(pairs[k], k);
  }
  // The scatter moved each group's offset to the next group's: shift back.
  for (size_t k = key_count; k > 0; --k) offset[k] = offset[k - 1];
  offset[0] = 0;
}

}  // namespace

SpatialJoinEngine::SpatialJoinEngine(const RTree& r, const RTree& s,
                                     const JoinOptions& options,
                                     BufferPool* pool, Statistics* stats)
    : options_(options),
      acc_r_(r, pool, stats, UsesPlaneSweep(options.algorithm),
             PredicateExpansion(options.predicate, options.epsilon)),
      acc_s_(s, pool, stats, UsesPlaneSweep(options.algorithm)),
      stats_(stats),
      probe_(r.height() > s.height() ? r : s, pool, options, stats,
             /*windows_are_r=*/r.height() <= s.height()),
      expansion_(PredicateExpansion(options.predicate, options.epsilon)) {
  RSJ_CHECK_MSG(r.options().page_size == s.options().page_size,
                "joined trees must share one page size");
  RSJ_CHECK_MSG(expansion_ >= 0.0, "negative predicate expansion");
}

void SpatialJoinEngine::Run(ResultSink* sink) {
  sink_ = sink;
  const VisitedNode root_r = acc_r_.Visit(acc_r_.tree().root_page(), 0);
  const VisitedNode root_s = acc_s_.Visit(acc_s_.tree().root_page(), 0);
  const Rect mbr_r = root_r.node.ComputeMbr();
  const Rect mbr_s = root_s.node.ComputeMbr();
  universe_ = mbr_r.Union(mbr_s);
  JoinNodes(root_r, root_s, RSideRect(mbr_r).Intersection(mbr_s),
            /*depth=*/0);
  sink_ = nullptr;
  sink->Flush();
}

void SpatialJoinEngine::BeginPartitionedRun() {
  // Each worker reads the roots itself (counted), like a processor of a
  // parallel R-tree would; the universe frame must agree across workers.
  universe_ =
      acc_r_.Visit(acc_r_.tree().root_page(), 0).node.ComputeMbr().Union(
          acc_s_.Visit(acc_s_.tree().root_page(), 0).node.ComputeMbr());
}

void SpatialJoinEngine::ProcessPartition(const Entry& er, const Entry& es,
                                         ResultSink* sink) {
  sink_ = sink;
  ProcessChildPair(er, es, /*depth=*/0);
  sink_ = nullptr;
}

void SpatialJoinEngine::Emit(uint32_t r_ref, uint32_t s_ref) {
  ++stats_->output_pairs;
  sink_->Add(r_ref, s_ref);
}

SpatialJoinEngine::DepthScratch& SpatialJoinEngine::Scratch(size_t depth) {
  while (scratch_.size() <= depth) {
    scratch_.push_back(std::make_unique<DepthScratch>());
  }
  return *scratch_[depth];
}

void SpatialJoinEngine::MarkEntriesBlock(const RectColumns& block,
                                         const Rect& rect, RectBlock* marked) {
  CountedOverlapMark(block, rect, OverlapSubject::kBlock,
                     &stats_->join_comparisons, marked);
}

void SpatialJoinEngine::SlotPairs::Build(std::span<const EntryPair> pairs,
                                         size_t slots, bool by_first) {
  CountingSort(
      pairs, slots,
      [by_first](const EntryPair& p) { return by_first ? p.first : p.second; },
      [](const EntryPair&, uint32_t position) { return position; }, &begin,
      &order);
  left.resize(slots);
  for (size_t k = 0; k < slots; ++k) left[k] = begin[k + 1] - begin[k];
}

void SpatialJoinEngine::QualifyingPairs(const VisitedNode& first,
                                        const VisitedNode& second,
                                        const Rect& rect, DepthScratch* slot) {
  // The visited nodes' rectangles are each side's as the scalar code
  // tested them: the R-side accessor grows them by the predicate expansion
  // (after the sweep accessors sort; expansion preserves the xl order).
  std::vector<EntryPair>& pairs = slot->pairs;
  pairs.clear();

  if (!UsesPlaneSweep(options_.algorithm)) {
    if (!RestrictsSearchSpace(options_.algorithm)) {
      // SJ1: every entry of the one node against every entry of the other;
      // the paper iterates S in the outer loop. One kernel pass of `first`
      // per `second` entry.
      for (uint32_t j = 0; j < second.rects.size; ++j) {
        const Rect sj = second.rects.RectAt(j);
        CountedOverlapHits(first.rects, sj, OverlapSubject::kBlock,
                           &stats_->join_comparisons, &hits_);
        for (const uint32_t i : hits_) pairs.emplace_back(i, j);
      }
      return;
    }
    // SJ2: mark the entries intersecting the parent intersection rectangle,
    // then nested loops over the marked subsets only.
    MarkEntriesBlock(first.rects, rect, &slot->marked_first);
    MarkEntriesBlock(second.rects, rect, &slot->marked_second);
    const RectBlock& marked_first = slot->marked_first;
    const RectBlock& marked_second = slot->marked_second;
    for (uint32_t j = 0; j < marked_second.size(); ++j) {
      const Rect js = marked_second.RectAt(j);
      CountedOverlapHits(marked_first, js, OverlapSubject::kBlock,
                         &stats_->join_comparisons, &hits_);
      for (const uint32_t i : hits_) {
        pairs.emplace_back(marked_first.index_at(i),
                           marked_second.index_at(j));
      }
    }
    return;
  }

  // Sweep algorithms: node entries arrive sorted by xl from the accessor;
  // the (optional) marking scan preserves that order (expansion grows every
  // rectangle equally, keeping the xl order intact), so the columns feed
  // straight into the node-pair sweep kernel.
  RectColumns seq_first = first.rects;
  RectColumns seq_second = second.rects;
  if (RestrictsSearchSpace(options_.algorithm)) {
    MarkEntriesBlock(first.rects, rect, &slot->marked_first);
    MarkEntriesBlock(second.rects, rect, &slot->marked_second);
    seq_first = slot->marked_first;
    seq_second = slot->marked_second;
  }
  RSJ_DCHECK(IsSortedByLowerXBlock(seq_first));
  RSJ_DCHECK(IsSortedByLowerXBlock(seq_second));
  SortedIntersectionTestBlocks(seq_first, seq_second,
                               &stats_->join_comparisons, &pairs);
}

void SpatialJoinEngine::ApplyZOrderSchedule(const NodeView& nr,
                                            const NodeView& ns,
                                            DepthScratch* slot) {
  std::vector<EntryPair>& pairs = slot->pairs;
  std::vector<ZScheduled>& scheduled = slot->zorder;
  scheduled.clear();
  for (const EntryPair& p : pairs) {
    const Rect inter =
        nr.entries.rect(p.first).Intersection(ns.entries.rect(p.second));
    scheduled.push_back(ZScheduled{ZValue(inter.Center(), universe_), p});
  }
  // The z-order sort is the extra CPU price of SJ5 the paper points out;
  // charge one comparison per comparator call to the schedule counter.
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [this](const ZScheduled& a, const ZScheduled& b) {
                     stats_->schedule_comparisons.Add(1);
                     return a.zvalue < b.zvalue;
                   });
  for (size_t i = 0; i < scheduled.size(); ++i) {
    pairs[i] = scheduled[i].pair;
  }
}

void SpatialJoinEngine::JoinNodes(const VisitedNode& r, const VisitedNode& s,
                                  const Rect& rect, size_t depth) {
  ++stats_->node_pairs;
  const NodeView& nr = r.node;
  const NodeView& ns = s.node;
  if (nr.is_leaf() && ns.is_leaf()) {
    DepthScratch& slot = Scratch(depth);
    QualifyingPairs(r, s, rect, &slot);
    for (const EntryPair& p : slot.pairs) {
      const Entry a = nr.entries.entry(p.first);
      const Entry b = ns.entries.entry(p.second);
      // The traversal filter is exact for the intersection predicate; all
      // other predicates are verified on the original rectangles here.
      if (options_.predicate != JoinPredicate::kIntersects &&
          !EvaluatePredicateCounted(options_.predicate, options_.epsilon,
                                    a.rect, b.rect,
                                    &stats_->join_comparisons)) {
        continue;
      }
      Emit(a.ref, b.ref);
    }
    return;
  }
  if (!nr.is_leaf() && !ns.is_leaf()) {
    DepthScratch& slot = Scratch(depth);
    QualifyingPairs(r, s, rect, &slot);
    if (UsesZOrderSchedule(options_.algorithm)) {
      ApplyZOrderSchedule(nr, ns, &slot);
    }
    ExecuteDirectorySchedule(nr, ns, &slot, depth);
    return;
  }
  // Different heights: one side already reached its data nodes.
  if (ns.is_leaf()) {
    WindowPhase(&acc_r_, r, s, rect, /*r_is_deep=*/true, depth);
  } else {
    WindowPhase(&acc_s_, s, r, rect, /*r_is_deep=*/false, depth);
  }
}

void SpatialJoinEngine::ProcessChildPair(const Entry& er, const Entry& es,
                                         size_t depth) {
  const VisitedNode child_r = acc_r_.Visit(er.ref, depth);
  const VisitedNode child_s = acc_s_.Visit(es.ref, depth);
  JoinNodes(child_r, child_s, RSideRect(er.rect).Intersection(es.rect),
            depth);
}

void SpatialJoinEngine::ExecuteDirectorySchedule(const NodeView& nr,
                                                 const NodeView& ns,
                                                 DepthScratch* slot,
                                                 size_t depth) {
  const std::vector<EntryPair>& pairs = slot->pairs;
  // Rolling schedule-driven prefetch: the read schedule — sweep order for
  // SJ3/SJ4, z-order for SJ5 — is streamed into the prefetcher a window
  // ahead of the pair being processed, so the child pages are in flight
  // in exactly the order the traversal will consume them while the
  // in-flight footprint stays bounded by the window, not the schedule.
  // The distance is recursion-aware: where the children are data nodes a
  // pair is consumed immediately and a full window pays off; higher up
  // each pair expands into a whole subtree join first, so reaching
  // further ahead would only thrash the buffer before consumption.
  size_t next_hint = 0;
  const bool leaf_children = nr.level == 1 && ns.level == 1;
  const size_t hint_window =
      prefetcher_ == nullptr
          ? 0
          : (leaf_children
                 ? std::max<size_t>(1, prefetcher_->options().max_ahead / 2)
                 : 1);
  const auto pump_hints = [&](size_t processed,
                              const std::vector<bool>* done) {
    if (prefetcher_ == nullptr) return;
    const size_t limit = std::min(pairs.size(), processed + hint_window);
    for (; next_hint < limit; ++next_hint) {
      if (done != nullptr && (*done)[next_hint]) continue;  // drained early
      prefetcher_->PrefetchPage(acc_r_.tree().file(),
                                nr.entries.ref[pairs[next_hint].first],
                                stats_);
      prefetcher_->PrefetchPage(acc_s_.tree().file(),
                                ns.entries.ref[pairs[next_hint].second],
                                stats_);
    }
  };

  if (!UsesPinning(options_.algorithm)) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      pump_hints(k, nullptr);
      ProcessChildPair(nr.entries.entry(pairs[k].first),
                       ns.entries.entry(pairs[k].second), depth + 1);
    }
    return;
  }

  // SJ4/SJ5: the child page with the maximal degree (number of remaining
  // schedule pairs it participates in) is pinned and completely drained
  // before the schedule continues. The degree only depends on the schedule,
  // so the pin is taken when the page is first read — the algorithm simply
  // keeps holding the page it is working on, which is what makes pinning
  // effective even with a zero-size LRU buffer (Table 5, row "0 KByte").
  // Every pair before `idx` is done when `idx` is reached, so a slot's
  // degree is its count of pairs not done, less `idx` itself, and a drain
  // walks only the pinned slot's pairs.
  std::vector<bool>& done = slot->done;
  done.assign(pairs.size(), false);
  SlotPairs& by_r = slot->pins_first;
  SlotPairs& by_s = slot->pins_second;
  by_r.Build(pairs, nr.entries.size, /*by_first=*/true);
  by_s.Build(pairs, ns.entries.size, /*by_first=*/false);
  const auto run = [&](uint32_t k) {
    ProcessChildPair(nr.entries.entry(pairs[k].first),
                     ns.entries.entry(pairs[k].second), depth + 1);
    done[k] = true;
    --by_r.left[pairs[k].first];
    --by_s.left[pairs[k].second];
  };
  for (uint32_t idx = 0; idx < pairs.size(); ++idx) {
    if (done[idx]) continue;
    // The pin-and-drain order deviates from the schedule, but only by
    // pulling same-page pairs forward; hinting in schedule order a window
    // ahead of the drain cursor (skipping drained pairs) stays a sound
    // approximation.
    pump_hints(idx, &done);

    const uint32_t degree_r = by_r.left[pairs[idx].first] - 1;
    const uint32_t degree_s = by_s.left[pairs[idx].second] - 1;
    if (degree_r == 0 && degree_s == 0) {
      run(idx);
      continue;
    }

    const bool pin_r = degree_r >= degree_s;
    NodeAccessor* acc = pin_r ? &acc_r_ : &acc_s_;
    const SlotPairs& side = pin_r ? by_r : by_s;
    const uint32_t pinned = pin_r ? pairs[idx].first : pairs[idx].second;
    const PageId pinned_page =
        pin_r ? nr.entries.ref[pinned] : ns.entries.ref[pinned];
    acc->Pin(pinned_page);
    for (uint32_t p = side.begin[pinned]; p < side.begin[pinned + 1]; ++p) {
      if (!done[side.order[p]]) run(side.order[p]);
    }
    acc->Unpin(pinned_page);
  }
}

void SpatialJoinEngine::WindowPhase(NodeAccessor* deep,
                                    const VisitedNode& dir,
                                    const VisitedNode& leaf, const Rect& rect,
                                    bool r_is_deep, size_t depth) {
  const EntryColumns& dir_entries = dir.node.entries;
  const EntryColumns& leaf_entries = leaf.node.entries;
  DepthScratch& slot = Scratch(depth);
  QualifyingPairs(dir, leaf, rect, &slot);
  const std::vector<EntryPair>& pairs = slot.pairs;

  if (prefetcher_ != nullptr && !pairs.empty()) {
    // §4.4: the subtree root pages the window queries will descend into,
    // in pair (schedule) order.
    slot.pages.clear();
    for (const EntryPair& p : pairs) {
      slot.pages.push_back(dir_entries.ref[p.first]);
    }
    prefetcher_->PrefetchSchedule(deep->tree().file(), slot.pages, stats_);
  }

  switch (options_.height_policy) {
    case HeightPolicy::kPerPairQueries: {
      // (a) one window query per qualifying pair, in schedule order.
      for (const EntryPair& p : pairs) {
        ++stats_->window_queries;
        SingleWindowQuery(deep, dir_entries.ref[p.first],
                          leaf_entries.entry(p.second), r_is_deep, depth + 1);
      }
      return;
    }
    case HeightPolicy::kBatchedSubtree: {
      // (b) group the windows per subtree; each subtree is traversed
      // exactly once for its whole batch, the subtrees in the order of
      // their first pair. The nested loops take each batch in pair order.
      // The sweep algorithms take it in slot order, which is xl order as
      // they read nodes sorted, so the probe sweeps it without a batch
      // sort: a counting pass by slot comes first.
      const bool sweep = UsesPlaneSweep(options_.algorithm);
      const auto by_slot = [](const EntryPair& p) { return p.second; };
      const auto by_subtree = [](const EntryPair& p) { return p.first; };
      const auto pair = [](const EntryPair& p, uint32_t) { return p; };
      std::span<const EntryPair> grouped(pairs);
      if (sweep) {
        CountingSort(grouped, leaf_entries.size, by_slot, pair, &slot.begin,
                     &slot.by_leaf);
        grouped = slot.by_leaf;
      }
      CountingSort(grouped, dir_entries.size, by_subtree, pair, &slot.begin,
                   &slot.batches);
      slot.done.assign(dir_entries.size, false);
      for (const EntryPair& p : pairs) {
        const uint32_t d = p.first;
        if (slot.done[d]) continue;  // batch already answered
        slot.done[d] = true;
        const std::span<const EntryPair> batch(
            slot.batches.data() + slot.begin[d],
            slot.begin[d + 1] - slot.begin[d]);
        const PageId subtree = dir_entries.ref[d];
        if (sweep) {
          // The probe was built on the deeper tree.
          RSJ_DCHECK(r_is_deep ==
                     (acc_r_.tree().height() > acc_s_.tree().height()));
          slot.windows.clear();
          for (const EntryPair& q : batch) {
            slot.windows.push_back(leaf_entries.rect(q.second));
          }
          probe_.RunSorted(subtree, std::span<const Rect>(slot.windows),
                           [&](uint32_t i, uint32_t id) {
                             EmitWindowMatch(
                                 id, leaf_entries.ref[batch[i].second],
                                 r_is_deep);
                           });
          continue;
        }
        // The batch carries the R-side rectangles: the leaf's kernel
        // rectangles are grown by the expansion when the leaf is R.
        slot.batch.Clear();
        for (const EntryPair& q : batch) {
          slot.batch.PushBack(leaf.rects.RectAt(q.second), q.second);
        }
        stats_->window_queries += batch.size();
        BatchedWindowQuery(deep, subtree, leaf.node, slot.batch, r_is_deep,
                           depth + 1);
      }
      return;
    }
    case HeightPolicy::kPinnedQueries: {
      // (c) plane-sweep pair order with pinning of the subtree root page;
      // as in the directory case the pin is held from the first read, and
      // a subtree's degree is its count of pairs not done, less `idx`.
      std::vector<bool>& done = slot.done;
      done.assign(pairs.size(), false);
      SlotPairs& by_dir = slot.pins_first;
      by_dir.Build(pairs, dir_entries.size, /*by_first=*/true);
      const auto query = [&](uint32_t k) {
        ++stats_->window_queries;
        SingleWindowQuery(deep, dir_entries.ref[pairs[k].first],
                          leaf_entries.entry(pairs[k].second), r_is_deep,
                          depth + 1);
        done[k] = true;
        --by_dir.left[pairs[k].first];
      };
      for (uint32_t idx = 0; idx < pairs.size(); ++idx) {
        if (done[idx]) continue;
        const uint32_t d = pairs[idx].first;
        if (by_dir.left[d] == 1) {
          query(idx);
          continue;
        }
        const PageId pinned_page = dir_entries.ref[d];
        deep->Pin(pinned_page);
        for (uint32_t p = by_dir.begin[d]; p < by_dir.begin[d + 1]; ++p) {
          if (!done[by_dir.order[p]]) query(by_dir.order[p]);
        }
        deep->Unpin(pinned_page);
      }
      return;
    }
  }
}

void SpatialJoinEngine::SingleWindowQuery(NodeAccessor* deep, PageId page,
                                          const Entry& query, bool r_is_deep,
                                          size_t depth) {
  const VisitedNode visited = deep->Visit(page, depth);
  const EntryColumns& entries = visited.node.entries;
  if (visited.node.is_leaf()) {
    // Exact predicate on data entries (equivalent to, and cheaper than,
    // candidate filter + verification). Intersection runs as one kernel
    // pass (the leaf's rectangles are unexpanded: ε > 0 implies
    // within-distance); within-distance batches when the deep side is S —
    // when it is R the accessor's kernel rectangles carry the ε expansion,
    // so the exact test falls back to the original rectangles.
    if (options_.predicate == JoinPredicate::kIntersects) {
      CountedOverlapHits(
          visited.rects, query.rect,
          r_is_deep ? OverlapSubject::kBlock : OverlapSubject::kQuery,
          &stats_->join_comparisons, &hits_);
      for (const uint32_t h : hits_) {
        EmitWindowMatch(entries.ref[h], query.ref, r_is_deep);
      }
      return;
    }
    if (options_.predicate == JoinPredicate::kWithinDistance && !r_is_deep) {
      CountedWithinDistanceHits(visited.rects, query.rect, options_.epsilon,
                                &stats_->join_comparisons, &hits_);
      for (const uint32_t h : hits_) Emit(query.ref, entries.ref[h]);
      return;
    }
    for (uint32_t e = 0; e < entries.size; ++e) {
      const Rect rect = entries.rect(e);
      const Rect& a = r_is_deep ? rect : query.rect;
      const Rect& b = r_is_deep ? query.rect : rect;
      if (EvaluatePredicateCounted(options_.predicate, options_.epsilon, a, b,
                                   &stats_->join_comparisons)) {
        EmitWindowMatch(entries.ref[e], query.ref, r_is_deep);
      }
    }
    return;
  }
  // Directory descent: the deep side's kernel rectangles carry the
  // expansion exactly when it is the R side, matching the scalar RSideRect
  // placement. The recursion happens after the hit scan (the kernel hit
  // buffer is shared).
  const Rect query_rect = r_is_deep ? query.rect : RSideRect(query.rect);
  CountedOverlapHits(visited.rects, query_rect, OverlapSubject::kBlock,
                     &stats_->join_comparisons, &hits_);
  std::vector<PageId> children;
  children.reserve(hits_.size());
  for (const uint32_t h : hits_) children.push_back(entries.ref[h]);
  for (const PageId child : children) {
    SingleWindowQuery(deep, child, query, r_is_deep, depth + 1);
  }
}

void SpatialJoinEngine::BatchedWindowQuery(NodeAccessor* deep, PageId page,
                                           const NodeView& windows,
                                           const RectBlock& batch,
                                           bool r_is_deep, size_t depth) {
  const VisitedNode visited = deep->Visit(page, depth);
  const EntryColumns& entries = visited.node.entries;
  // The paper's order: data entries outer, query batch inner — one counted
  // overlap pass over the batch per entry. The entry's rectangle is the
  // accessor's kernel rectangle, which carries the expansion when R is
  // deep.
  if (visited.node.is_leaf()) {
    for (uint32_t e = 0; e < entries.size; ++e) {
      if (options_.predicate == JoinPredicate::kIntersects) {
        // No expansion (ε > 0 implies within-distance); the R side is the
        // subject of each test.
        CountedOverlapHits(
            batch, visited.rects.RectAt(e),
            r_is_deep ? OverlapSubject::kQuery : OverlapSubject::kBlock,
            &stats_->join_comparisons, &hits_);
        for (const uint32_t q : hits_) {
          EmitWindowMatch(entries.ref[e],
                          windows.entries.ref[batch.index_at(q)], r_is_deep);
        }
        continue;
      }
      // Every other predicate is tested exactly, on the unexpanded
      // rectangles.
      const Rect rect = entries.rect(e);
      for (uint32_t q = 0; q < batch.size(); ++q) {
        const Entry window = windows.entries.entry(batch.index_at(q));
        const Rect& a = r_is_deep ? rect : window.rect;
        const Rect& b = r_is_deep ? window.rect : rect;
        if (EvaluatePredicateCounted(options_.predicate, options_.epsilon, a,
                                     b, &stats_->join_comparisons)) {
          EmitWindowMatch(entries.ref[e], window.ref, r_is_deep);
        }
      }
    }
    return;
  }
  // Directory level: each entry is the subject of its test against every
  // window. Subtrees go in entry order, each with its windows in batch
  // order; the child batch stays in this depth's slot while the subtree
  // runs.
  DepthScratch& slot = Scratch(depth);
  for (uint32_t e = 0; e < entries.size; ++e) {
    if (CountedOverlapMark(batch, visited.rects.RectAt(e),
                           OverlapSubject::kQuery, &stats_->join_comparisons,
                           &slot.batch) == 0) {
      continue;
    }
    BatchedWindowQuery(deep, entries.ref[e], windows, slot.batch, r_is_deep,
                       depth + 1);
  }
}

}  // namespace rsj
