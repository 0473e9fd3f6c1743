// ID-spatial-join: filter step (MBR join over the R*-trees) plus
// refinement step on the exact polyline geometry (§2.1).
//
// The paper's evaluation stops at the MBR-spatial-join and names exact-
// geometry joins as work in progress; this module implements that next
// step for the reproduction's datasets, whose objects carry their exact
// vertex chains.
//
// Two execution shapes:
//   * `RunIdSpatialJoin` — the inline form: the filter step is the
//     one-thread executor run (exec/parallel_executor.h), whose one sink
//     streams candidate batches straight into the segment-intersection
//     test, so nothing is ever collected (but the candidates cannot be
//     reused and the refined pairs cannot be kept).
//   * `RunIdSpatialJoinStreaming` — the bounded-memory collected form:
//     the filter step runs through spilling sinks (exec/spill_sink.h,
//     resident chunks capped at a budget), refinement consumes the
//     candidate chunks back one at a time through a SpilledResultReader —
//     never holding the full candidate set — and the surviving pairs
//     flow through their own, optionally spilling, sink. Peak result
//     memory is O(budgets × chunk_capacity) regardless of the candidate
//     or result cardinality.

#ifndef RSJ_JOIN_REFINEMENT_H_
#define RSJ_JOIN_REFINEMENT_H_

#include <array>
#include <atomic>
#include <mutex>

#include "datagen/dataset.h"
#include "engine/memory_governor.h"
#include "exec/spill_sink.h"
#include "geom/raster_interval.h"
#include "join/join_runner.h"

namespace rsj {

// The raster-interval intermediate tier over one dataset pair: a
// thread-safe per-object signature cache for each side, sharing one grid
// (the union of both universes — the soundness precondition of
// geom/raster_interval.h). Signatures build lazily on first use (sharded
// double-checked locking; safe from concurrent refinement workers) or
// eagerly via BuildAll; their heap bytes lease from the governor's
// kRasterSignatures category (TryLease, falling back to Charge so
// refinement never stalls — overshoot stays visible in the peaks) and
// are released on destruction.
//
// Classify() tallies the verdict counters on the CALLER's Statistics
// (ri_true_hits / ri_rejects / ri_inconclusive, plus
// ri_exact_tests_avoided for the proven verdicts); build work charges
// ri_signatures_built / ri_signature_bytes to whichever caller triggered
// the build. One instance per dataset pair; must outlive every
// refinement run using it.
class RasterRefineFilter {
 public:
  RasterRefineFilter(const Dataset& r, const Dataset& s, unsigned grid_bits,
                     MemoryGovernor* governor = nullptr);
  ~RasterRefineFilter();

  RasterRefineFilter(const RasterRefineFilter&) = delete;
  RasterRefineFilter& operator=(const RasterRefineFilter&) = delete;

  // Classifies one candidate pair (ids index .objects), building the two
  // signatures if this is their first use.
  RasterVerdict Classify(uint32_t r_id, uint32_t s_id, Statistics* stats);

  // Eagerly rasterizes every object of both sides (build counters charge
  // to `stats`).
  void BuildAll(Statistics* stats);

  const RasterGrid& grid() const { return grid_; }
  // Heap bytes of every signature built so far (== the governor lease).
  uint64_t signature_bytes() const {
    return signature_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Side {
    const Dataset* dataset = nullptr;
    // One atomic slot per object; nullptr until built. A self-join's S
    // side aliases the R side's slots instead of building twice.
    std::vector<std::atomic<const RasterSignature*>> slots;
  };

  const RasterSignature& Signature(Side* side, uint32_t id,
                                   Statistics* stats);

  RasterGrid grid_;
  MemoryGovernor* const governor_;
  Side r_side_;
  Side s_side_;
  Side* const s_ptr_;  // &r_side_ when R and S are the same dataset
  std::array<std::mutex, 64> build_mu_;
  std::atomic<uint64_t> signature_bytes_{0};
};

struct IdJoinResult {
  uint64_t candidate_pairs = 0;  // filter-step output (MBR intersections)
  uint64_t result_pairs = 0;     // pairs whose exact geometries intersect
  Statistics stats;  // the filter run's counters, raster verdicts included

  // Fraction of candidates surviving refinement.
  double Selectivity() const {
    return candidate_pairs == 0
               ? 0.0
               : static_cast<double>(result_pairs) / candidate_pairs;
  }
};

// Runs filter + refinement. `r`/`s` provide the exact geometry for the
// object ids stored in the trees (tree entry ids index into .objects).
IdJoinResult RunIdSpatialJoin(const RTree& r_tree, const Dataset& r,
                              const RTree& s_tree, const Dataset& s,
                              const JoinOptions& options);

// Streaming refinement over an already-collected (possibly spilled)
// candidate set: consumes the candidates chunk by chunk — one spilled
// chunk resident at a time — tests the exact polyline geometry of every
// pair, and emits the survivors through `sink` (counting, materializing,
// or spilling). Returns the number of surviving pairs; spill re-reads
// and refinement costs are charged to `stats`. `raster` non-null runs
// the two-tier path: TRUE-HIT pairs are emitted without an exact test,
// REJECTs are dropped, only INCONCLUSIVE pairs pay the segment tests.
// `tracer` emits the refinement span (obs/trace.h), which carries the
// avoided-exact-test count as its arg; nullptr = no tracing.
uint64_t RefineCandidateChunks(const SpilledResult& candidates,
                               const Dataset& r, const Dataset& s,
                               ResultSink* sink, Statistics* stats,
                               RasterRefineFilter* raster = nullptr,
                               TraceRecorder* tracer = nullptr);

struct StreamingRefineOptions {
  // Pairs per result chunk on both the candidate and the refined side.
  size_t chunk_capacity = 1024;
  // Candidate chunks held resident before the filter step spills.
  size_t filter_budget_chunks = 64;
  // Refined chunks held resident before the output sink spills (only
  // meaningful with collect_result_pairs). Both spill files have 4 KiB
  // pages.
  size_t refine_budget_chunks = 64;
  // Threads of the filter step, which runs the parallel executor
  // (exec/parallel_executor.h) with spilling sinks; 1 runs it as one
  // partition over one LRU of buffer_bytes.
  unsigned num_threads = 1;
  // Modeled-time layer for the spill writes/re-reads (and, in parallel
  // runs, the pools). Not owned; nullptr degrades to pure counting.
  IoScheduler* io = nullptr;
  // Keep the refined pairs (as a possibly-spilled SpilledResult) instead
  // of only counting them.
  bool collect_result_pairs = false;
  // Run-wide memory ledger (engine/memory_governor.h): the filter and
  // refinement budgets mirror their resident chunks into it as byte
  // leases while the run holds them. Not owned; nullptr = standalone.
  MemoryGovernor* governor = nullptr;
  // Span sink (obs/trace.h) for the spill/reread/refine spans; nullptr =
  // no tracing. Not owned; must outlive the run.
  TraceRecorder* tracer = nullptr;
};

struct StreamingIdJoinResult {
  uint64_t candidate_pairs = 0;  // filter-step output (MBR intersections)
  uint64_t result_pairs = 0;     // pairs whose exact geometries intersect
  Statistics stats;              // filter + refinement + spill counters
  // The refined pairs, when collect_result_pairs was set.
  SpilledResult refined;

  double Selectivity() const {
    return candidate_pairs == 0
               ? 0.0
               : static_cast<double>(result_pairs) / candidate_pairs;
  }
};

// The bounded-memory collected form of the ID-spatial-join: spilling
// filter step, chunk-streamed refinement, optionally spilling output.
// The (candidate_pairs, result_pairs) counts equal RunIdSpatialJoin's
// for every configuration.
StreamingIdJoinResult RunIdSpatialJoinStreaming(
    const RTree& r_tree, const Dataset& r, const RTree& s_tree,
    const Dataset& s, const JoinOptions& options,
    const StreamingRefineOptions& refine_options);

}  // namespace rsj

#endif  // RSJ_JOIN_REFINEMENT_H_
