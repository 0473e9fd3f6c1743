#include "join/join_runner.h"

#include <optional>

#include "exec/exec_context.h"
#include "io/prefetcher.h"
#include "storage/buffer_pool.h"

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

// The body of both sequential entry points: a private BufferPool of
// buffer_bytes, reading through `io` when one is given; one engine, which
// streams its read schedule into a prefetcher over the pool when
// `prefetch` is given; and a counting or collecting sink.
JoinRunResult RunOnPrivateBuffer(const RTree& r, const RTree& s,
                                 const JoinOptions& options, IoScheduler* io,
                                 std::optional<Prefetcher::Options> prefetch,
                                 bool collect_pairs) {
  JoinRunResult result;
  {
    BufferPool pool(
        BufferPool::Options{options.buffer_bytes, r.options().page_size},
        &result.stats);
    if (io != nullptr) pool.AttachIoScheduler(io);
    std::optional<Prefetcher> prefetcher;
    SpatialJoinEngine engine(r, s, options, &pool, &result.stats);
    if (prefetch.has_value()) {
      engine.set_prefetcher(&prefetcher.emplace(&pool, *prefetch));
    }
    if (collect_pairs) {
      // A measuring gauge (engine/memory_governor.h) records the resident
      // high-water mark instead of computing it from final counts.
      ResidentBudget gauge(ResidentBudget::kUnbounded);
      MaterializingSink sink(ChunkArena{}, &gauge);
      engine.Run(&sink);
      result.chunks = sink.TakeChunks();
      result.pair_count = sink.count();
      result.stats.NoteResultChunksResident(gauge.peak());
    } else {
      CountingSink sink;
      engine.Run(&sink);
      result.pair_count = sink.count();
    }
  }
  return result;
}

}  // namespace

JoinRunResult RunSpatialJoinWithIo(const RTree& r, const RTree& s,
                                   const JoinOptions& options, IoScheduler* io,
                                   bool prefetch, size_t prefetch_ahead,
                                   bool collect_pairs,
                                   uint64_t* modeled_elapsed_micros) {
  RSJ_CHECK(io != nullptr);
  // The run is the scheduler's only user: its window synchronizes on
  // close, retiring any actor callers left behind too.
  IoWindow window(io, /*owned=*/true);
  JoinRunResult result = RunOnPrivateBuffer(
      r, s, options, io,
      prefetch ? std::optional(Prefetcher::Options{prefetch_ahead})
               : std::nullopt,
      collect_pairs);
  const uint64_t elapsed = window.Close();
  if (modeled_elapsed_micros != nullptr) *modeled_elapsed_micros = elapsed;
  return result;
}

JoinRunResult RunShardedSpatialJoin(std::span<const Rect> r_rects,
                                    std::span<const Rect> s_rects,
                                    const DeclusterOptions& decluster,
                                    const RTreeOptions& tree_options,
                                    const ShardedJoinOptions& options) {
  JoinRunResult result;
  const Declustering decl =
      Declustering::Build(r_rects, s_rects, decluster);
  // Only the probing (R) side replicates with the predicate expansion:
  // the traversal grows R rectangles by ε, so an S object never needs to
  // reach beyond its own tiles to be found.
  ShardBuildOptions r_build;
  r_build.tree = tree_options;
  r_build.expansion =
      PredicateExpansion(options.join.predicate, options.join.epsilon);
  r_build.governor = options.exec.memory_governor;
  ShardBuildOptions s_build;
  s_build.tree = tree_options;
  s_build.governor = options.exec.memory_governor;
  const ShardedDataset r(&decl, r_rects, r_build, &result.stats);
  const ShardedDataset s(&decl, s_rects, s_build, &result.stats);
  ShardedJoinResult joined = RunShardedSpatialJoin(r, s, options);
  result.pair_count = joined.pair_count;
  result.chunks = std::move(joined.chunks);
  result.stats.MergeFrom(joined.stats);
  return result;
}

JoinRunResult RunSpatialJoin(const RTree& r, const RTree& s,
                             const JoinOptions& options, bool collect_pairs) {
  return RunOnPrivateBuffer(r, s, options, /*io=*/nullptr,
                            /*prefetch=*/std::nullopt, collect_pairs);
}

}  // namespace rsj
