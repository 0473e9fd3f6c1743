// Parallel multi-way chain join scaling over the shared decoded-node
// cache — the follow-up experiment to bench_parallel_scaling.
//
// Runs the 3-way chain streets ⋈ rivers&railways ⋈ streets (2nd map) on
// SJ4 (4 KByte pages, 128 KByte shared buffer, shared NodeCache) with
// 2, 4 and 8 workers over a simulated 4-disk array. Each pairwise worker
// extends its own pairs depth-first through the probe phase
// (exec/multiway_executor.h). Reports wall clock, tuple counts, decode
// counters, aggregate disk reads, `frontier_peak_tuples` (the peak live
// intermediate tuple count) and the modeled elapsed time over the disk
// array.
//
// Each row is also emitted as a JSON line (prefix "JSON ") so the bench
// trajectory can be scraped by tooling. The process exits non-zero when
// any tuple count diverges from the sequential chain's, or when — at
// scale >= 0.05 — a run's peak frontier is not strictly below the
// sequential chain's whole largest frontier, so CI smoke runs enforce the
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
  // Small chunks keep the per-worker frontier ceiling —
  // workers × (chunk_capacity + one probe's matches) — below the whole
  // frontier from the CI smoke scale (0.05) upward.
  exec.chunk_capacity = 8;
  Measured m;
  const auto t0 = Clock::now();
  m.result = RunParallelChainSpatialJoin(chain, jopt, exec);
  m.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return m;
}

void EmitJson(unsigned workers, const Measured& m, double seq_seconds) {
  std::printf(
      "JSON {\"bench\":\"multiway_scaling\",\"workers\":%u,"
      "\"tuples\":%llu,\"seconds\":%.6f,"
      "\"speedup\":%.3f,"
      "\"node_decodes\":%llu,\"node_cache_hits\":%llu,"
      "\"hit_rate\":%.4f,\"pair_tasks\":%zu,"
      "\"frontier_peak_tuples\":%llu,\"modeled_elapsed_micros\":%llu,%s}\n",
      workers, static_cast<unsigned long long>(m.result.tuple_count),
      m.seconds, seq_seconds / std::max(1e-9, m.seconds),
      static_cast<unsigned long long>(m.result.total_stats.node_decodes),
      static_cast<unsigned long long>(m.result.total_stats.node_cache_hits),
      m.result.total_stats.HitRate(), m.result.pairwise_task_count,
      static_cast<unsigned long long>(
          m.result.total_stats.frontier_peak_tuples),
      static_cast<unsigned long long>(m.result.modeled_elapsed_micros),
      IoCountersJson(m.result.total_stats).c_str());
}

int Main(int argc, char** argv) {
  const double scale = ParseScale(argc, argv);
  PrintBanner(
      "Parallel 3-way chain join scaling (SJ4, 4 KByte pages, 128 KByte "
      "shared buffer, shared NodeCache, 4 simulated disks; depth-first "
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

  const auto t0 = Clock::now();
  const auto sequential = RunChainSpatialJoin(chain, jopt);
  const double seq_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("sequential chain: %llu tuples in %.3f s (%llu decodes, "
              "%llu decode hits, frontier peak %llu tuples)\n",
              static_cast<unsigned long long>(sequential.tuple_count),
              seq_seconds,
              static_cast<unsigned long long>(sequential.stats.node_decodes),
              static_cast<unsigned long long>(
                  sequential.stats.node_cache_hits),
              static_cast<unsigned long long>(
                  sequential.stats.frontier_peak_tuples));

  const uint64_t whole_frontier = sequential.stats.frontier_peak_tuples;
  PrintRow("workers",
           {"tuples", "wall (s)", "speedup", "decodes", "disk reads",
            "peak frontier", "modeled (ms)"});
  bool ok = true;
  // 1 worker falls back to the sequential chain join, so the rows start
  // at 2 workers.
  for (const unsigned workers : {2u, 4u, 8u}) {
    const Measured m = Measure(chain, jopt, workers);
    const Statistics& stats = m.result.total_stats;
    PrintRow(std::to_string(workers),
             {Num(m.result.tuple_count), Dbl(m.seconds, 3),
              Dbl(seq_seconds / std::max(1e-9, m.seconds)),
              Num(stats.node_decodes), Num(stats.disk_reads),
              Num(stats.frontier_peak_tuples),
              Dbl(m.result.modeled_elapsed_micros / 1000.0, 1)});
    EmitJson(workers, m, seq_seconds);
    if (m.result.tuple_count != sequential.tuple_count) {
      std::printf("FAIL: tuple count diverges at %u workers\n", workers);
      ok = false;
    }
    // Bounded frontier memory. Tiny smoke scales can make the whole
    // frontier smaller than the workers' staged chunks, so the gate arms
    // at the CI smoke scale and above.
    if (scale >= 0.05 && stats.frontier_peak_tuples >= whole_frontier) {
      std::printf(
          "FAIL: peak frontier (%llu tuples) is not strictly below the "
          "sequential chain's whole frontier (%llu tuples) at %u workers\n",
          static_cast<unsigned long long>(stats.frontier_peak_tuples),
          static_cast<unsigned long long>(whole_frontier), workers);
      ok = false;
    }
  }

  std::printf(
      "\nIdentical tuple counts in every configuration. Each worker extends\n"
      "its staged pairs depth-first, so its peak frontier stays at one\n"
      "staged chunk plus one probe's matches while the sequential chain\n"
      "holds the whole frontier; the shared NodeCache decodes each resident\n"
      "page once system-wide.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
