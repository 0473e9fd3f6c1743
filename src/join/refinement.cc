#include "join/refinement.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "exec/parallel_executor.h"
#include "geom/segment.h"

namespace rsj {

namespace {

// The shared exact-geometry test of both refinement shapes.
bool PairIntersectsExactly(const Dataset& r, const Dataset& s,
                           const ResultPair& p) {
  RSJ_DCHECK(p.r < r.objects.size());
  RSJ_DCHECK(p.s < s.objects.size());
  const SpatialObject& obj_r = r.objects[p.r];
  const SpatialObject& obj_s = s.objects[p.s];
  return PolylinesIntersect(std::span<const Point>(obj_r.chain),
                            std::span<const Point>(obj_s.chain));
}

// The two-tier test: TRUE-HIT and REJECT decide without exact geometry,
// INCONCLUSIVE falls through to the segment tests. Tallies the verdict
// ledger on `stats` (Classify) so per-pair exactly one verdict counter
// increments.
bool PairIntersectsTwoTier(const Dataset& r, const Dataset& s,
                           const ResultPair& p, RasterRefineFilter* raster,
                           Statistics* stats) {
  switch (raster->Classify(p.r, p.s, stats)) {
    case RasterVerdict::kTrueHit:
      return true;
    case RasterVerdict::kReject:
      return false;
    case RasterVerdict::kInconclusive:
      break;
  }
  return PairIntersectsExactly(r, s, p);
}

}  // namespace

RasterRefineFilter::RasterRefineFilter(const Dataset& r, const Dataset& s,
                                       unsigned grid_bits,
                                       MemoryGovernor* governor)
    : grid_(r.universe.Union(s.universe), grid_bits),
      governor_(governor),
      s_ptr_(&r == &s ? &r_side_ : &s_side_) {
  r_side_.dataset = &r;
  r_side_.slots = std::vector<std::atomic<const RasterSignature*>>(
      r.objects.size());
  if (s_ptr_ == &s_side_) {
    s_side_.dataset = &s;
    s_side_.slots = std::vector<std::atomic<const RasterSignature*>>(
        s.objects.size());
  }
}

RasterRefineFilter::~RasterRefineFilter() {
  for (std::atomic<const RasterSignature*>& slot : r_side_.slots) {
    delete slot.load(std::memory_order_relaxed);
  }
  for (std::atomic<const RasterSignature*>& slot : s_side_.slots) {
    delete slot.load(std::memory_order_relaxed);
  }
  if (governor_ != nullptr) {
    governor_->Release(MemoryCategory::kRasterSignatures, signature_bytes());
  }
}

const RasterSignature& RasterRefineFilter::Signature(Side* side, uint32_t id,
                                                     Statistics* stats) {
  RSJ_DCHECK(id < side->slots.size());
  std::atomic<const RasterSignature*>& slot = side->slots[id];
  const RasterSignature* sig = slot.load(std::memory_order_acquire);
  if (sig != nullptr) return *sig;
  // Sharded double-checked build: one mutex per 64-way shard keeps
  // concurrent refinement workers from rasterizing one object twice
  // without serializing unrelated builds.
  std::lock_guard<std::mutex> lock(build_mu_[id % build_mu_.size()]);
  sig = slot.load(std::memory_order_acquire);
  if (sig != nullptr) return *sig;
  auto* built = new RasterSignature(BuildRasterSignature(
      grid_, std::span<const Point>(side->dataset->objects[id].chain)));
  const uint64_t bytes = built->ByteSize();
  signature_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (governor_ != nullptr &&
      !governor_->TryLease(MemoryCategory::kRasterSignatures, bytes)) {
    // Refinement must not stall on an exhausted budget: charge anyway —
    // the overshoot is visible in the governor's peaks.
    governor_->Charge(MemoryCategory::kRasterSignatures, bytes);
  }
  stats->ri_signatures_built += 1;
  stats->ri_signature_bytes += bytes;
  slot.store(built, std::memory_order_release);
  return *built;
}

RasterVerdict RasterRefineFilter::Classify(uint32_t r_id, uint32_t s_id,
                                           Statistics* stats) {
  const RasterSignature& a = Signature(&r_side_, r_id, stats);
  const RasterSignature& b = Signature(s_ptr_, s_id, stats);
  const RasterVerdict verdict = ClassifyRasterPair(a, b);
  switch (verdict) {
    case RasterVerdict::kTrueHit:
      stats->ri_true_hits += 1;
      stats->ri_exact_tests_avoided += 1;
      break;
    case RasterVerdict::kReject:
      stats->ri_rejects += 1;
      stats->ri_exact_tests_avoided += 1;
      break;
    case RasterVerdict::kInconclusive:
      stats->ri_inconclusive += 1;
      break;
  }
  return verdict;
}

void RasterRefineFilter::BuildAll(Statistics* stats) {
  for (uint32_t id = 0; id < r_side_.slots.size(); ++id) {
    Signature(&r_side_, id, stats);
  }
  if (s_ptr_ != &r_side_) {
    for (uint32_t id = 0; id < s_side_.slots.size(); ++id) {
      Signature(&s_side_, id, stats);
    }
  }
}

IdJoinResult RunIdSpatialJoin(const RTree& r_tree, const Dataset& r,
                              const RTree& s_tree, const Dataset& s,
                              const JoinOptions& options) {
  IdJoinResult result;
  std::unique_ptr<RasterRefineFilter> raster;
  if (options.refine_raster) {
    raster = std::make_unique<RasterRefineFilter>(r, s,
                                                  options.raster_grid_bits);
  }
  // The filter step is the one-thread executor run; its one sink streams
  // candidate batches into the refinement test, which charges the raster
  // verdicts to the worker's Statistics.
  std::unique_ptr<ResultSink> refine;
  const ParallelExecutorOptions exec;
  ExecContext ctx(options, r_tree.options().page_size, exec);
  const ParallelJoinResult filtered = RunParallelSpatialJoin(
      r_tree, s_tree, options, exec, ctx,
      [&](unsigned, Statistics* stats) {
        refine = std::make_unique<BatchedCallbackSink>(
            [&, stats](std::span<const ResultPair> batch) {
              for (const ResultPair& p : batch) {
                const bool hit =
                    raster != nullptr
                        ? PairIntersectsTwoTier(r, s, p, raster.get(), stats)
                        : PairIntersectsExactly(r, s, p);
                if (hit) ++result.result_pairs;
              }
            });
        return refine.get();
      });
  result.candidate_pairs = filtered.pair_count;
  result.stats = filtered.total_stats;
  return result;
}

uint64_t RefineCandidateChunks(const SpilledResult& candidates,
                               const Dataset& r, const Dataset& s,
                               ResultSink* sink, Statistics* stats,
                               RasterRefineFilter* raster,
                               TraceRecorder* tracer) {
  TraceSpan span(tracer, "spill", "refine");
  span.set_arg("candidates", candidates.pair_count);
  const uint64_t avoided_before = stats->ri_exact_tests_avoided;
  const uint64_t before = sink->count();
  SpilledResultReader reader(&candidates, stats);
  std::span<const ResultPair> chunk;
  while (reader.Next(&chunk)) {
    for (const ResultPair& p : chunk) {
      const bool hit = raster != nullptr
                           ? PairIntersectsTwoTier(r, s, p, raster, stats)
                           : PairIntersectsExactly(r, s, p);
      if (hit) sink->Add(p.r, p.s);
    }
  }
  sink->Flush();
  // The span carries one arg: the two-tier path reports the exact tests
  // it avoided, the exact-only path keeps the candidate count.
  if (span.active() && raster != nullptr) {
    span.set_arg("avoided", stats->ri_exact_tests_avoided - avoided_before);
  }
  return sink->count() - before;
}

StreamingIdJoinResult RunIdSpatialJoinStreaming(
    const RTree& r_tree, const Dataset& r, const RTree& s_tree,
    const Dataset& s, const JoinOptions& options,
    const StreamingRefineOptions& refine_options) {
  RSJ_CHECK_MSG(refine_options.chunk_capacity >= 1 &&
                    refine_options.filter_budget_chunks >= 1 &&
                    refine_options.refine_budget_chunks >= 1,
                "streaming refinement needs chunk_capacity and both "
                "budgets >= 1");
  StreamingIdJoinResult result;

  // Filter step: candidates collect through spilling sinks, so at most
  // filter_budget_chunks completed chunks are ever resident.
  ParallelExecutorOptions exec;
  exec.num_threads = refine_options.num_threads;
  exec.collect_pairs = true;
  exec.spill_results = true;
  exec.spill_budget_chunks = refine_options.filter_budget_chunks;
  exec.chunk_capacity = refine_options.chunk_capacity;
  exec.io_scheduler = refine_options.io;
  exec.memory_governor = refine_options.governor;
  exec.tracer = refine_options.tracer;
  ParallelJoinResult filtered =
      RunParallelSpatialJoin(r_tree, s_tree, options, exec);
  SpilledResult candidates = std::move(filtered.spilled);
  result.stats.MergeFrom(filtered.total_stats);
  result.candidate_pairs = candidates.pair_count;

  // The raster tier sits between the collected candidates and the exact
  // tests; it rasterizes each object on first classification, and its
  // signature bytes lease from the governor while the filter lives
  // (released when this scope ends).
  std::unique_ptr<RasterRefineFilter> raster;
  if (options.refine_raster) {
    raster = std::make_unique<RasterRefineFilter>(
        r, s, options.raster_grid_bits, refine_options.governor);
  }

  // Refinement step: stream the candidate chunks back (one spilled chunk
  // resident at a time) and emit the survivors through their own sink.
  if (refine_options.collect_result_pairs) {
    ChunkArena out_arena(ChunkArena::Options{refine_options.chunk_capacity,
                                             /*max_free_chunks=*/1024});
    auto out_file = std::make_shared<SpillFile>(SpillFile::Options{
        kPageSize4K, refine_options.io, refine_options.tracer});
    ResidentBudget out_budget(
        refine_options.refine_budget_chunks, refine_options.governor,
        MemoryCategory::kResultChunks,
        refine_options.chunk_capacity * sizeof(ResultPair));
    out_budget.AttachTracer(refine_options.tracer, /*pid=*/0);
    SpillingSink out(out_arena, out_file.get(), &out_budget, &result.stats);
    result.result_pairs = RefineCandidateChunks(
        candidates, r, s, &out, &result.stats, raster.get(),
        refine_options.tracer);
    result.refined = out.TakeResult();
    result.refined.file = std::move(out_file);
    // While refinement ran, the filter step's resident candidate chunks
    // stayed in memory ALONGSIDE the output sink's resident chunks, so
    // the run's true peak is their sum — not the max of the two budgets.
    result.stats.NoteResultChunksResident(candidates.resident.chunk_count() +
                                          out_budget.peak());
  } else {
    CountingSink out;
    result.result_pairs = RefineCandidateChunks(
        candidates, r, s, &out, &result.stats, raster.get(),
        refine_options.tracer);
  }
  return result;
}

}  // namespace rsj
