// Parallel multi-way chain join scaling over one shared buffer whose
// pages every reader scans in place — the follow-up experiment to
// bench_parallel_scaling.
//
// Runs the 3-way chain streets ⋈ rivers&railways ⋈ streets (2nd map) on
// SJ4 (4 KByte pages, 128 KByte shared buffer) with
// 1, 2, 4 and 8 workers over a simulated 4-disk array. Each pairwise worker
// probes its staged chunk of pairs as one batch, in one descent of the
// probe relation's R*-tree (exec/multiway_executor.h). Reports wall clock,
// tuple counts, window queries, join comparisons, take-over counters,
// aggregate disk reads, `frontier_peak_tuples` (the peak live intermediate
// tuple count) and the modeled elapsed time over the disk array.
//
// Each row is also emitted as a JSON line (prefix "JSON ") so the bench
// trajectory can be scraped by tooling. The process exits non-zero when
// any row's tuple count or window-query count diverges from the 1-worker
// row's — every tuple is probed exactly once per phase, so a dropped
// partial batch or a batch probed twice fails at every scale — when a
// row takes more pages over than it reads (a physically read page is taken
// over once, whichever reader requests it), or when, at scale >= 0.05, a
// run's peak frontier is not strictly below the first phase's whole
// frontier (the pairwise join's pairs), so CI smoke runs enforce the
// bounded-frontier criterion.

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"

namespace rsj {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Relation {
  std::unique_ptr<PagedFile> file;
  std::unique_ptr<RTree> tree;
  std::vector<Rect> rects;
};

Relation BuildRelation(const Dataset& dataset, uint32_t page_size) {
  Relation rel;
  rel.rects = dataset.Mbrs();
  rel.file = std::make_unique<PagedFile>(page_size);
  RTreeOptions options;
  options.page_size = page_size;
  rel.tree = std::make_unique<RTree>(
      BuildRTree(rel.file.get(), rel.rects, options));
  return rel;
}

struct Measured {
  ParallelChainJoinResult result;
  double seconds = 0.0;
};

Measured Measure(const std::vector<JoinRelation>& chain,
                 const JoinOptions& jopt, unsigned workers) {
  // A fresh simulated disk array per run keeps the modeled clocks
  // comparable: modeled elapsed then measures this run alone.
  IoScheduler::Options sopt;
  sopt.disks.disk_count = 4;
  sopt.cpu_micros_per_read = 1000;
  IoScheduler io(sopt);
  ParallelExecutorOptions exec;
  exec.num_threads = workers;
  exec.io_scheduler = &io;
  // Small chunks keep the frontier ceiling — workers × chunk_capacity for
  // this 3-way chain, one staged chunk per worker — below the whole
  // frontier from the CI smoke scale (0.05) upward.
  exec.chunk_capacity = 8;
  Measured m;
  const auto t0 = Clock::now();
  m.result = RunParallelChainSpatialJoin(chain, jopt, exec);
  m.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return m;
}

void EmitJson(unsigned workers, const Measured& m, double one_seconds) {
  std::printf(
      "JSON {\"bench\":\"multiway_scaling\",\"workers\":%u,"
      "\"tuples\":%llu,\"seconds\":%.6f,"
      "\"speedup\":%.3f,"
      "\"window_queries\":%llu,\"join_comparisons\":%llu,"
      "\"node_decodes\":%llu,\"node_cache_hits\":%llu,"
      "\"hit_rate\":%.4f,\"pair_tasks\":%zu,"
      "\"frontier_peak_tuples\":%llu,\"modeled_elapsed_micros\":%llu,%s}\n",
      workers, static_cast<unsigned long long>(m.result.tuple_count),
      m.seconds, one_seconds / std::max(1e-9, m.seconds),
      static_cast<unsigned long long>(m.result.total_stats.window_queries),
      static_cast<unsigned long long>(
          m.result.total_stats.join_comparisons.count()),
      static_cast<unsigned long long>(m.result.total_stats.node_decodes),
      static_cast<unsigned long long>(m.result.total_stats.node_cache_hits),
      m.result.total_stats.HitRate(), m.result.pairwise_task_count,
      static_cast<unsigned long long>(
          m.result.total_stats.frontier_peak_tuples),
      static_cast<unsigned long long>(m.result.modeled_elapsed_micros),
      IoCountersJson(m.result.total_stats).c_str());
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner(
      "Parallel 3-way chain join scaling (SJ4, 4 KByte pages, 128 KByte "
      "shared buffer read in place, 4 simulated disks; batched "
      "probes in the pairwise workers)",
      "Section 2.1 multi-way joins x Section 6 parallel future work",
      scale);

  const Workload wa = MakeWorkload(TestCase::kA, scale);
  const Workload wb = MakeWorkload(TestCase::kB, scale);
  const Relation r1 = BuildRelation(wa.r, kPageSize4K);
  const Relation r2 = BuildRelation(wa.s, kPageSize4K);
  const Relation r3 = BuildRelation(wb.s, kPageSize4K);
  const std::vector<JoinRelation> chain = {{r1.tree.get(), &r1.rects},
                                           {r2.tree.get(), &r2.rects},
                                           {r3.tree.get(), &r3.rects}};

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 128 * 1024;

  // The first phase's whole frontier: every pair of the pairwise join.
  const uint64_t whole_frontier =
      RunSpatialJoin(*r1.tree, *r2.tree, jopt).pair_count;
  std::printf("first phase: %llu pairs\n",
              static_cast<unsigned long long>(whole_frontier));

  PrintRow("workers",
           {"tuples", "wall (s)", "speedup", "windows", "join cmp",
            "take-overs", "disk reads", "peak frontier", "modeled (ms)"});
  bool ok = true;
  Measured one;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    const Measured m = Measure(chain, jopt, workers);
    if (workers == 1) one = m;
    const Statistics& stats = m.result.total_stats;
    const Statistics& base = one.result.total_stats;
    PrintRow(std::to_string(workers),
             {Num(m.result.tuple_count), Dbl(m.seconds, 3),
              Dbl(one.seconds / std::max(1e-9, m.seconds)),
              Num(stats.window_queries), Num(stats.join_comparisons.count()),
              Num(stats.node_decodes), Num(stats.disk_reads),
              Num(stats.frontier_peak_tuples),
              Dbl(m.result.modeled_elapsed_micros / 1000.0, 1)});
    EmitJson(workers, m, one.seconds);
    if (m.result.tuple_count != one.result.tuple_count) {
      std::printf("FAIL: tuple count diverges at %u workers\n", workers);
      ok = false;
    }
    // Every frontier tuple is probed once per phase at every thread count:
    // a dropped partial batch or a double flush shows here.
    if (stats.window_queries != base.window_queries) {
      std::printf(
          "FAIL: %llu window queries at %u workers, 1 worker ran %llu\n",
          static_cast<unsigned long long>(stats.window_queries), workers,
          static_cast<unsigned long long>(base.window_queries));
      ok = false;
    }
    // A physically read page is taken over at most once; a second
    // take-over of one read means the page lost its take-over bit.
    if (stats.node_decodes > stats.disk_reads) {
      std::printf("FAIL: %llu take-overs for %llu disk reads at %u workers\n",
                  static_cast<unsigned long long>(stats.node_decodes),
                  static_cast<unsigned long long>(stats.disk_reads), workers);
      ok = false;
    }
    // Bounded frontier memory. Tiny smoke scales can make the whole
    // frontier smaller than the workers' staged chunks, so the gate arms
    // at the CI smoke scale and above.
    if (scale >= 0.05 && stats.frontier_peak_tuples >= whole_frontier) {
      std::printf(
          "FAIL: peak frontier (%llu tuples) is not strictly below the "
          "first phase's whole frontier (%llu pairs) at %u workers\n",
          static_cast<unsigned long long>(stats.frontier_peak_tuples),
          static_cast<unsigned long long>(whole_frontier), workers);
      ok = false;
    }
  }

  std::printf(
      "\nIdentical tuple and window-query counts in every configuration.\n"
      "Each worker probes its staged chunk as one batch and emits the final\n"
      "tuples as the probe finds them, so its peak frontier stays at one\n"
      "staged chunk, whatever one window hits, instead of the first phase's\n"
      "whole frontier; one request takes each read page over\n"
      "system-wide.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
