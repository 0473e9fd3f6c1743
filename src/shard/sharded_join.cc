#include "shard/sharded_join.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "io/io_scheduler.h"
#include "rtree/entry.h"

namespace rsj {

ShardedDataset::ShardedDataset(const Declustering* decl,
                               std::span<const Rect> rects,
                               const ShardBuildOptions& options,
                               Statistics* stats)
    : decl_(decl),
      rects_(rects.begin(), rects.end()),
      expansion_(options.expansion) {
  RSJ_CHECK(decl_ != nullptr);
  const unsigned num_shards = decl_->num_shards();
  const TileGrid& grid = decl_->grid();

  // Stage every shard's entries and id map, then bulk-load. A shard id
  // can repeat across the tiles of one object's range, so placements are
  // deduplicated with an epoch-stamped table instead of a per-object set.
  std::vector<std::vector<Entry>> staging(num_shards);
  std::vector<Shard> shards(num_shards);
  std::vector<uint32_t> seen(num_shards, 0);
  uint32_t epoch = 0;
  for (uint32_t id = 0; id < rects_.size(); ++id) {
    const TileGrid::TileRange range =
        grid.TileRangeOf(rects_[id].Expanded(expansion_));
    ++epoch;
    uint32_t placements = 0;
    for (unsigned ty = range.y0; ty <= range.y1; ++ty) {
      for (unsigned tx = range.x0; tx <= range.x1; ++tx) {
        const unsigned shard =
            decl_->ShardOfTile(ty * grid.tiles_per_side() + tx);
        if (seen[shard] == epoch) continue;
        seen[shard] = epoch;
        const auto local = static_cast<uint32_t>(shards[shard].ids.size());
        staging[shard].push_back(Entry{rects_[id], local});
        shards[shard].ids.push_back(id);
        ++placements;
      }
    }
    replicated_ += placements - 1;
  }

  // The staging arrays are the build's transient working set: lease their
  // bytes from the governor while the shard trees load. TryLease-refused
  // builds proceed anyway (there is no smaller way to build) but the
  // overshoot stays visible in the governor's peaks via Charge.
  uint64_t staged_bytes = 0;
  for (unsigned k = 0; k < num_shards; ++k) {
    staged_bytes += staging[k].size() * sizeof(Entry) +
                    shards[k].ids.size() * sizeof(uint32_t);
  }
  const bool leased =
      options.governor != nullptr &&
      options.governor->TryLease(MemoryCategory::kShardBuild, staged_bytes);
  if (options.governor != nullptr && !leased) {
    options.governor->Charge(MemoryCategory::kShardBuild, staged_bytes);
  }

  for (unsigned k = 0; k < num_shards; ++k) {
    shards[k].file = std::make_unique<PagedFile>(options.tree.page_size);
    shards[k].tree = std::make_unique<RTree>(shards[k].file.get(),
                                             options.tree);
    if (!staging[k].empty()) {
      shards[k].tree->BulkLoadStr(staging[k], options.fill_fraction);
      if (stats != nullptr) ++stats->sh_shards_built;
    }
    staging[k].clear();
    staging[k].shrink_to_fit();
  }
  if (options.governor != nullptr) {
    options.governor->Release(MemoryCategory::kShardBuild, staged_bytes);
  }
  if (stats != nullptr) stats->sh_objects_replicated += replicated_;
  shards_ = std::move(shards);
}

namespace {

// Per-worker dedup stage of the sharded join: maps shard-local ids back
// to global ids and forwards a pair iff the emitting shard owns the
// pair's reference point — the bottom-left corner of
// (r expanded by the predicate expansion) ∩ s. Both objects' replication
// ranges cover that point (it lies inside both rectangles, and ownership
// cells are subsets of the closed replication cells), so the owning
// shard always discovers the pair; every other shard suppresses it.
class DedupSink final : public ResultSink {
 public:
  DedupSink(const ShardedDataset* r, const ShardedDataset* s, unsigned shard,
            ResultSink* out)
      : r_ids_(r->shard_ids(shard)),
        s_ids_(s->shard_ids(shard)),
        r_rects_(r->rects()),
        s_rects_(s->rects()),
        decl_(&r->declustering()),
        expansion_(r->expansion()),
        shard_(shard),
        out_(out) {}

  uint64_t suppressed() const { return suppressed_; }

 protected:
  void Consume(std::span<const ResultPair> batch) override {
    for (const ResultPair& pair : batch) {
      const uint32_t gr = r_ids_[pair.r];
      const uint32_t gs = s_ids_[pair.s];
      // The engine only emits pairs whose expanded rectangles intersect
      // (the traversal's superset filter), so the intersection corner is
      // well defined. Same-float-expression as the replication ranges.
      const Rect expanded = r_rects_[gr].Expanded(expansion_);
      const Point ref{std::max(expanded.xl, s_rects_[gs].xl),
                      std::max(expanded.yl, s_rects_[gs].yl)};
      if (decl_->OwnerShardOf(ref) == shard_) {
        out_->Add(gr, gs);
      } else {
        ++suppressed_;
      }
    }
  }

 private:
  std::span<const uint32_t> r_ids_;
  std::span<const uint32_t> s_ids_;
  std::span<const Rect> r_rects_;
  std::span<const Rect> s_rects_;
  const Declustering* decl_;
  double expansion_;
  unsigned shard_;
  ResultSink* out_;
  uint64_t suppressed_ = 0;
};

}  // namespace

ShardedJoinResult RunShardedSpatialJoin(const ShardedDataset& r,
                                        const ShardedDataset& s,
                                        const ShardedJoinOptions& options) {
  RSJ_CHECK_MSG(&r.declustering() == &s.declustering(),
                "sharded join needs both sides on one Declustering");
  RSJ_CHECK_MSG(options.exec.io_scheduler == nullptr,
                "sharded join creates shard-local schedulers; "
                "use disks_per_shard");
  ShardedJoinResult result;
  const unsigned num_shards = r.num_shards();
  const unsigned workers = std::max(1u, options.exec.num_threads);
  result.shard_stats.resize(num_shards);
  result.shard_modeled_micros.assign(num_shards, 0);

  // One arena recycles chunk blocks across all shards' runs; one gauge
  // measures the whole run's resident-chunk peak (and mirrors it into
  // the governor while chunks are held); one task pool runs every shard
  // pair's tasks.
  ChunkArena arena(
      ChunkArena::Options{std::max<size_t>(1, options.exec.chunk_capacity)});
  ResidentBudget gauge(ResidentBudget::kUnbounded,
                       options.exec.memory_governor,
                       MemoryCategory::kResultChunks,
                       options.exec.chunk_capacity * sizeof(ResultPair));
  TaskPool tasks(TaskPool::Options{workers - 1, options.exec.tracer});

  for (unsigned shard = 0; shard < num_shards; ++shard) {
    const RTree& rt = r.shard_tree(shard);
    const RTree& st = s.shard_tree(shard);
    if (rt.size() == 0 || st.size() == 0) continue;
    ++result.shards_joined;

    // A private disk array per shard: one modeled node.
    std::unique_ptr<IoScheduler> io;
    ParallelExecutorOptions exec = options.exec;
    if (options.disks_per_shard > 0) {
      IoScheduler::Options io_options;
      io_options.disks.disk_count = options.disks_per_shard;
      io = std::make_unique<IoScheduler>(io_options);
      exec.io_scheduler = io.get();
    }

    std::vector<std::unique_ptr<ResultSink>> inner(workers);
    std::vector<std::unique_ptr<DedupSink>> dedup(workers);
    for (unsigned w = 0; w < workers; ++w) {
      if (exec.collect_pairs) {
        inner[w] = std::make_unique<MaterializingSink>(arena, &gauge);
      } else {
        inner[w] = std::make_unique<CountingSink>();
      }
      dedup[w] = std::make_unique<DedupSink>(&r, &s, shard, inner[w].get());
    }

    // A context per shard on the run's task pool: its own pool, and the
    // owned window over the shard's scheduler. Shards
    // model independent nodes, so the run-level elapsed time is the max,
    // not the sum.
    ExecContext ctx(options.join, rt.options().page_size, exec,
                    LentResources{.tasks = &tasks});
    ParallelJoinResult shard_run = RunParallelSpatialJoin(
        rt, st, options.join, exec, ctx,
        [&](unsigned w, Statistics*) { return dedup[w].get(); });
    const uint64_t modeled = ctx.window().Close();
    result.shard_modeled_micros[shard] = modeled;
    result.modeled_elapsed_micros =
        std::max(result.modeled_elapsed_micros, modeled);

    for (unsigned w = 0; w < workers; ++w) {
      result.raw_pairs += dedup[w]->count();
      result.suppressed_pairs += dedup[w]->suppressed();
      result.pair_count += inner[w]->count();
      if (exec.collect_pairs) {
        result.chunks.Splice(
            static_cast<MaterializingSink*>(inner[w].get())->TakeChunks());
      }
    }
    result.shard_stats[shard] = shard_run.total_stats;
    result.stats.MergeFrom(shard_run.total_stats);
  }

  result.stats.sh_raw_pairs += result.raw_pairs;
  result.stats.sh_dedup_suppressed += result.suppressed_pairs;
  result.stats.NoteResultChunksResident(gauge.peak());
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

}  // namespace rsj
