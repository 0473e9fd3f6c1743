// Execution statistics: the quantities every table of the paper reports.
//
// The paper measures a spatial join by (i) the number of disk accesses and
// (ii) the number of executed floating point comparisons, split into the
// comparisons spent on the join itself, on sorting node entries (Table 4's
// `sorting` row) and on computing the z-order read schedule (the CPU price
// of SpatialJoin5 discussed in §4.3). `Statistics` carries all counters and
// is threaded through the buffer pool and the join engine.

#ifndef RSJ_STORAGE_STATISTICS_H_
#define RSJ_STORAGE_STATISTICS_H_

#include <cstdint>
#include <string>

#include "geom/comparison_counter.h"

namespace rsj {

struct Statistics {
  // --- I/O ---
  uint64_t disk_reads = 0;         // physical page reads ("disk accesses")
  uint64_t disk_writes = 0;        // physical page writes
  uint64_t buffer_hits = 0;        // reads served from the LRU buffer
  uint64_t buffer_evictions = 0;   // pages dropped from the buffer
  uint64_t pin_count = 0;          // Pin() events (SJ4/SJ5 page pinning)

  // --- page take-over (storage/buffer_pool.h, BufferPool::Take) ---
  uint64_t node_decodes = 0;     // reader requests that took a page over
  uint64_t node_cache_hits = 0;  // reader requests after its take-over

  // --- simulated asynchronous I/O (src/io/) ---
  uint64_t prefetch_issued = 0;    // async read-aheads actually issued
  uint64_t prefetch_hits = 0;      // consumer requests served by a prefetch
  uint64_t prefetch_wasted = 0;    // prefetched frames evicted unconsumed
  uint64_t modeled_io_micros = 0;  // modeled stall waiting for the disks

  // --- CPU (floating point comparisons, the paper's metric) ---
  ComparisonCounter join_comparisons;      // join-condition tests + marking
  ComparisonCounter sort_comparisons;      // sorting node entries by xl
  ComparisonCounter schedule_comparisons;  // z-order schedule computation

  // --- join bookkeeping ---
  uint64_t output_pairs = 0;    // result pairs emitted
  uint64_t node_pairs = 0;      // node pairs processed by the recursion
  uint64_t window_queries = 0;  // window queries issued (different heights)

  // --- two-tier refinement (geom/raster_interval.h) ---
  // Per candidate pair exactly one of {true_hits, rejects, inconclusive}
  // increments, so their sum equals the candidate count the tier saw and
  // ri_exact_tests_avoided == ri_true_hits + ri_rejects always holds.
  uint64_t ri_signatures_built = 0;     // object signatures rasterized
  uint64_t ri_signature_bytes = 0;      // heap bytes of built signatures
  uint64_t ri_true_hits = 0;            // pairs proven intersecting
  uint64_t ri_rejects = 0;              // pairs proven disjoint
  uint64_t ri_inconclusive = 0;         // pairs falling through to exact
  uint64_t ri_exact_tests_avoided = 0;  // exact tests the tier saved

  // Peak live intermediate tuples of a multi-way chain join: materialized
  // executions count whole frontiers, the streaming pipeline counts
  // chunks in flight — the counter that proves the pipeline caps frontier
  // memory. Merged by MAX (it is a high-water mark, not a volume).
  uint64_t frontier_peak_tuples = 0;

  // --- spill-to-disk result path (exec/spill_sink.h) ---
  uint64_t result_chunks_spilled = 0;  // result chunks serialized to disk
  uint64_t result_spill_bytes = 0;     // bytes written for spilled chunks
                                       // (page-granular, incl. padding)
  // High-water mark of completed result chunks held resident in memory by
  // the run's output path: spilling sinks cap it at their resident budget,
  // materialized runs count their whole collected output. Merged by MAX
  // (a high-water mark, like frontier_peak_tuples).
  uint64_t result_peak_chunks_resident = 0;

  // --- spatial declustering (src/shard/) ---
  // Replication means a qualifying pair can be discovered by every shard
  // holding both objects; reference-point dedup forwards it exactly once.
  // Ledger invariant: sh_raw_pairs == forwarded pairs +
  // sh_dedup_suppressed for every sharded run.
  uint64_t sh_shards_built = 0;        // non-empty shard R-trees bulk-loaded
  uint64_t sh_objects_replicated = 0;  // placements beyond each object's first
  uint64_t sh_raw_pairs = 0;           // raw shard-pair hits before dedup
  uint64_t sh_dedup_suppressed = 0;    // hits suppressed by the dedup rule

  // Raises result_peak_chunks_resident to at least `chunks` — the one
  // place the resident-peak convention lives; every output path
  // (spilling budget peaks and materialized whole-result counts alike)
  // reports through this.
  void NoteResultChunksResident(uint64_t chunks) {
    if (chunks > result_peak_chunks_resident) {
      result_peak_chunks_resident = chunks;
    }
  }

  // Total comparisons across all three counters.
  uint64_t TotalComparisons() const {
    return join_comparisons.count() + sort_comparisons.count() +
           schedule_comparisons.count();
  }

  // Fraction of page requests served from the buffer.
  double HitRate() const {
    const uint64_t total = disk_reads + buffer_hits;
    return total == 0 ? 0.0 : static_cast<double>(buffer_hits) / total;
  }

  void Reset() { *this = Statistics(); }

  // Adds every counter of `other` into this instance. Parallel execution
  // gives each worker its own Statistics and merges them at the end.
  void MergeFrom(const Statistics& other);

  // Multi-line human readable dump (used by the examples).
  std::string ToString() const;
};

}  // namespace rsj

#endif  // RSJ_STORAGE_STATISTICS_H_
