// Spill-to-disk result path: bounded-memory collected output vs fully
// materialized, on the parallel 3-way chain join — the follow-up
// experiment to bench_multiway_scaling.
//
// Runs the 3-way self-chain streets ⋈ streets ⋈ streets — the chain
// whose collected result actually outgrows memory at smoke scale (≈ 8k
// tuples at scale 0.05, ≈ 1k chunks of 8) — on SJ4 (4 KByte pages,
// 128 KByte shared buffer) with 2..4 workers over a simulated 4-disk
// array, collecting the full tuple set both ways:
//   * materialized — the tuples are kept in memory
//     (result_peak_chunks_resident counts the whole collected output in
//     chunk-capacity units),
//   * spill        — a tuple-chunk budget is enforced: past
//     spill_budget_chunks resident chunks, completed chunks serialize to
//     a result file through the timed write path
//     (IoScheduler::WriteRun) and are streamed back for verification.
// Also A/Bs the streaming ID-join (spilling filter + chunk-streamed
// refinement, join/refinement.h) against the inline form on a TIGER-like
// street/river map, proving the candidate set is never held whole.
//
// Each row is emitted as a JSON line (prefix "JSON ") with
// result_peak_chunks_resident / result_chunks_spilled /
// result_spill_bytes / disk_writes / modeled_elapsed_micros. The process
// exits non-zero when any tuple multiset or refinement count diverges,
// or when — at scale >= 0.05 — the spill path's resident peak is not
// strictly below the materialized one while respecting its budget, so CI
// smoke runs enforce the bounded-memory acceptance criteria.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"

namespace rsj {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kChunkCapacity = 8;
constexpr size_t kSpillBudgetChunks = 8;

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

// `io` must outlive the returned result: the spilled tuple set re-reads
// its blocks through the scheduler during verification.
Measured Measure(const std::vector<JoinRelation>& chain,
                 const JoinOptions& jopt, unsigned workers, bool spill,
                 IoScheduler& io) {
  ParallelExecutorOptions exec;
  exec.num_threads = workers;
  exec.io_scheduler = &io;
  exec.chunk_capacity = kChunkCapacity;
  exec.spill_results = spill;
  exec.spill_budget_chunks = kSpillBudgetChunks;
  Measured m;
  const auto t0 = Clock::now();
  m.result = RunParallelChainSpatialJoin(chain, jopt, exec,
                                         /*collect_tuples=*/true);
  m.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return m;
}

void EmitJson(const char* mode, unsigned workers, const Measured& m) {
  const Statistics& stats = m.result.total_stats;
  std::printf(
      "JSON {\"bench\":\"spill\",\"mode\":\"%s\",\"workers\":%u,"
      "\"tuples\":%llu,\"seconds\":%.6f,"
      "\"peak_chunks_resident\":%llu,\"chunks_spilled\":%llu,"
      "\"spill_bytes\":%llu,\"disk_writes\":%llu,"
      "\"modeled_elapsed_micros\":%llu,%s}\n",
      mode, workers, static_cast<unsigned long long>(m.result.tuple_count),
      m.seconds,
      static_cast<unsigned long long>(stats.result_peak_chunks_resident),
      static_cast<unsigned long long>(stats.result_chunks_spilled),
      static_cast<unsigned long long>(stats.result_spill_bytes),
      static_cast<unsigned long long>(stats.disk_writes),
      static_cast<unsigned long long>(m.result.modeled_elapsed_micros),
      IoCountersJson(stats).c_str());
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner(
      "Spill-to-disk result path (SJ4, 4 KByte pages, 128 KByte shared "
      "buffer, 4 simulated disks; bounded-memory spill vs materialized "
      "collection on the parallel 3-way street self-chain, plus "
      "streaming refinement)",
      "Section 4.3 I/O treatment x bounded-memory output",
      scale);

  const Workload wa = MakeWorkload(TestCase::kA, scale);
  const Relation streets = BuildRelation(wa.r, kPageSize4K);
  const std::vector<JoinRelation> chain = {
      {streets.tree.get(), &streets.rects},
      {streets.tree.get(), &streets.rects},
      {streets.tree.get(), &streets.rects}};

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 128 * 1024;

  // The one-thread chain (RunChainSpatialJoin) is the reference multiset.
  auto one_thread = RunChainSpatialJoin(chain, jopt, /*collect_tuples=*/true);
  std::sort(one_thread.tuples.begin(), one_thread.tuples.end());
  std::printf("one-thread chain: %llu tuples\n",
              static_cast<unsigned long long>(one_thread.tuple_count));

  PrintRow("workers / mode",
           {"tuples", "wall (s)", "peak chunks", "spilled", "spill KB",
            "writes", "modeled (ms)"});
  bool ok = true;
  for (const unsigned workers : {2u, 4u}) {
    // A fresh simulated disk array per run keeps the modeled clocks
    // comparable: modeled elapsed then measures one run alone.
    IoScheduler::Options sopt;
    sopt.disks.disk_count = 4;
    sopt.cpu_micros_per_read = 1000;
    IoScheduler mat_io(sopt);
    IoScheduler spill_io(sopt);
    const Measured mat = Measure(chain, jopt, workers, /*spill=*/false,
                                 mat_io);
    const Measured spill = Measure(chain, jopt, workers, /*spill=*/true,
                                   spill_io);
    const struct {
      const char* mode;
      const Measured* m;
    } rows[] = {{"materialized", &mat}, {"spill", &spill}};
    for (const auto& row : rows) {
      char label[32];
      std::snprintf(label, sizeof(label), "%u / %s", workers, row.mode);
      const Statistics& stats = row.m->result.total_stats;
      PrintRow(label,
               {Num(row.m->result.tuple_count), Dbl(row.m->seconds, 3),
                Num(stats.result_peak_chunks_resident),
                Num(stats.result_chunks_spilled),
                Num(stats.result_spill_bytes / 1024),
                Num(stats.disk_writes),
                Dbl(row.m->result.modeled_elapsed_micros / 1000.0, 1)});
      EmitJson(row.mode, workers, *row.m);
    }

    // Identity: the spilled tuple set, streamed back from the result
    // file, must be the materialized multiset.
    Statistics reread;
    auto spilled_tuples = spill.result.spilled_tuples.CopyTuples(&reread);
    std::sort(spilled_tuples.begin(), spilled_tuples.end());
    auto materialized_tuples = mat.result.tuples;
    std::sort(materialized_tuples.begin(), materialized_tuples.end());
    if (spilled_tuples != one_thread.tuples ||
        materialized_tuples != one_thread.tuples) {
      std::printf("FAIL: tuple multiset diverges at %u workers\n", workers);
      ok = false;
    }
    // The spill path's reason to exist: a resident peak bounded by the
    // budget and strictly below the materialized result. Tiny smoke
    // scales can fit whole results inside the budget, so the gate arms
    // at the CI smoke scale and above.
    if (scale >= 0.05) {
      const uint64_t spill_peak =
          spill.result.total_stats.result_peak_chunks_resident;
      const uint64_t mat_peak =
          mat.result.total_stats.result_peak_chunks_resident;
      if (spill_peak > kSpillBudgetChunks || spill_peak >= mat_peak ||
          spill.result.total_stats.result_chunks_spilled == 0) {
        std::printf(
            "FAIL: spill resident peak (%llu chunks, %llu spilled) is not "
            "below the materialized peak (%llu chunks) within budget %zu "
            "at %u workers\n",
            static_cast<unsigned long long>(spill_peak),
            static_cast<unsigned long long>(
                spill.result.total_stats.result_chunks_spilled),
            static_cast<unsigned long long>(mat_peak), kSpillBudgetChunks,
            workers);
        ok = false;
      }
    }
  }

  // Streaming refinement on workload A's maps: the spilling filter +
  // chunk-streamed refinement must reproduce the inline counts while
  // holding at most its budgets resident.
  {
    RTreeOptions topt;
    topt.page_size = kPageSize4K;
    PagedFile fr(topt.page_size);
    PagedFile fs(topt.page_size);
    const auto mr = wa.r.Mbrs();
    const auto ms = wa.s.Mbrs();
    const RTree tr = BuildRTree(&fr, mr, topt);
    const RTree ts = BuildRTree(&fs, ms, topt);
    const IdJoinResult inline_result =
        RunIdSpatialJoin(tr, wa.r, ts, wa.s, jopt);
    StreamingRefineOptions ropts;
    ropts.chunk_capacity = kChunkCapacity;
    ropts.filter_budget_chunks = kSpillBudgetChunks;
    ropts.refine_budget_chunks = kSpillBudgetChunks;
    ropts.num_threads = 4;
    const StreamingIdJoinResult streaming =
        RunIdSpatialJoinStreaming(tr, wa.r, ts, wa.s, jopt, ropts);
    std::printf(
        "refinement: %llu candidates -> %llu pairs (inline), "
        "%llu -> %llu (streaming, peak %llu chunks, %llu spilled)\n",
        static_cast<unsigned long long>(inline_result.candidate_pairs),
        static_cast<unsigned long long>(inline_result.result_pairs),
        static_cast<unsigned long long>(streaming.candidate_pairs),
        static_cast<unsigned long long>(streaming.result_pairs),
        static_cast<unsigned long long>(
            streaming.stats.result_peak_chunks_resident),
        static_cast<unsigned long long>(
            streaming.stats.result_chunks_spilled));
    std::printf(
        "JSON {\"bench\":\"spill\",\"mode\":\"refinement\",\"workers\":4,"
        "%s,\"peak_chunks_resident\":%llu,\"chunks_spilled\":%llu,"
        "\"spill_bytes\":%llu,%s}\n",
        RefinementJson(streaming.candidate_pairs, streaming.result_pairs,
                       streaming.stats)
            .c_str(),
        static_cast<unsigned long long>(
            streaming.stats.result_peak_chunks_resident),
        static_cast<unsigned long long>(
            streaming.stats.result_chunks_spilled),
        static_cast<unsigned long long>(streaming.stats.result_spill_bytes),
        IoCountersJson(streaming.stats).c_str());
    if (streaming.candidate_pairs != inline_result.candidate_pairs ||
        streaming.result_pairs != inline_result.result_pairs) {
      std::printf("FAIL: streaming refinement diverges from inline\n");
      ok = false;
    }
    // Candidate and output residency overlap during refinement: the
    // ceiling is the sum of the filter and refine budgets.
    if (scale >= 0.05 && streaming.stats.result_peak_chunks_resident >
                             2 * kSpillBudgetChunks) {
      std::printf("FAIL: streaming refinement exceeded its budgets\n");
      ok = false;
    }
  }

  std::printf(
      "\nIdentical tuple multisets and refinement counts in every\n"
      "configuration. The spill path keeps at most spill_budget_chunks\n"
      "completed chunks resident — overflow chunks serialize to a result\n"
      "file through the timed write path and stream back on demand — so\n"
      "the resident peak stays at the budget while the materialized\n"
      "collection grows with the result. disk_writes and the modeled\n"
      "elapsed time show what that bound costs on the simulated array.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
