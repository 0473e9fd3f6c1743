// Parallel spatial join scaling — the §6 future-work experiment, executed
// by the task-based executor (exec/parallel_executor.h).
//
// Runs SJ4 on workload A (TIGER-like streets × rivers, 4 KByte pages) with
// 1..8 workers over one sharded, thread-safe 128 KByte pool. Reports
// wall-clock speedup over the sequential engine, the buffer hit rate,
// aggregate disk reads, and the executor's partitioning telemetry (task
// count, descent depth, per-worker task spread).
//
// SELF-CHECKING: the run exits non-zero when any row's pair count differs
// from the sequential engine's, when a row's per-worker task counts do not
// sum to its task count, or when a worker ran no task although the row had
// at least as many tasks as workers (the task pool deals every worker a
// block and never steals from a free worker's). Each row is also emitted
// as a JSON line (prefix "JSON ") so the bench trajectory can be scraped by
// tooling.

#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "exec/parallel_executor.h"
#include "join/join_runner.h"

namespace rsj {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Measured {
  ParallelJoinResult result;
  double seconds = 0.0;
};

struct TaskSpread {
  uint64_t max = 0;
  uint64_t min = 0;
};

TaskSpread ComputeSpread(const ParallelJoinResult& result) {
  TaskSpread spread;
  spread.min = UINT64_MAX;
  for (const uint64_t c : result.worker_task_counts) {
    spread.max = std::max(spread.max, c);
    spread.min = std::min(spread.min, c);
  }
  if (result.worker_task_counts.empty()) spread.min = 0;
  return spread;
}

Measured Measure(const TreePair& pair, const JoinOptions& jopt,
                 unsigned workers) {
  ParallelExecutorOptions exec;
  exec.num_threads = workers;
  Measured m;
  const auto t0 = Clock::now();
  m.result = RunParallelSpatialJoin(*pair.r, *pair.s, jopt, exec);
  m.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return m;
}

void EmitJson(unsigned workers, const Measured& m, double seq_seconds,
              const TaskSpread& spread) {
  std::printf(
      "JSON {\"bench\":\"parallel_scaling\",\"mode\":\"shared\","
      "\"workers\":%u,\"pairs\":%llu,\"seconds\":%.6f,\"speedup\":%.3f,"
      "\"hit_rate\":%.4f,"
      "\"tasks\":%zu,\"partition_depth\":%d,\"max_worker_tasks\":%llu,"
      "\"min_worker_tasks\":%llu,%s}\n",
      workers, static_cast<unsigned long long>(m.result.pair_count),
      m.seconds,
      seq_seconds / std::max(1e-9, m.seconds),
      m.result.total_stats.HitRate(), m.result.task_count,
      m.result.partition_depth, static_cast<unsigned long long>(spread.max),
      static_cast<unsigned long long>(spread.min),
      IoCountersJson(m.result.total_stats).c_str());
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner(
      "Parallel join scaling (SJ4, 4 KByte pages, 128 KByte shared buffer; "
      "task-based executor)",
      "Section 6 future work: parallel R-tree joins", scale);
  const Workload w = MakeWorkload(TestCase::kA, scale);
  const TreePair pair = BuildTreePair(w.r, w.s, kPageSize4K);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 128 * 1024;

  const auto t0 = Clock::now();
  const auto sequential = RunSpatialJoin(*pair.r, *pair.s, jopt);
  const double seq_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  PrintRow("workers", {"pairs", "wall (s)", "speedup", "total reads",
                       "hit rate", "tasks (max/min)"});
  PrintRow("1 (sequential)",
           {Num(sequential.pair_count), Dbl(seq_seconds, 3), "1.00",
            Num(sequential.stats.disk_reads),
            Dbl(sequential.stats.HitRate() * 100.0, 1) + "%", "-"});
  std::printf(
      "JSON {\"bench\":\"parallel_scaling\",\"mode\":\"sequential\","
      "\"workers\":1,\"pairs\":%llu,\"seconds\":%.6f,\"speedup\":1.0,"
      "\"hit_rate\":%.4f,%s}\n",
      static_cast<unsigned long long>(sequential.pair_count), seq_seconds,
      sequential.stats.HitRate(),
      IoCountersJson(sequential.stats).c_str());

  bool ok = true;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    const Measured m = Measure(pair, jopt, workers);
    const TaskSpread spread = ComputeSpread(m.result);
    char label[16];
    std::snprintf(label, sizeof(label), "%u", workers);
    char spread_cell[32];
    std::snprintf(spread_cell, sizeof(spread_cell), "%llu / %llu",
                  static_cast<unsigned long long>(spread.max),
                  static_cast<unsigned long long>(spread.min));
    PrintRow(label,
             {Num(m.result.pair_count), Dbl(m.seconds, 3),
              Dbl(seq_seconds / std::max(1e-9, m.seconds)),
              Num(m.result.total_stats.disk_reads),
              Dbl(m.result.total_stats.HitRate() * 100.0, 1) + "%",
              std::string(spread_cell)});
    EmitJson(workers, m, seq_seconds, spread);
    if (m.result.pair_count != sequential.pair_count) {
      std::fprintf(stderr, "FAIL workers=%u: %llu pairs, sequential %llu\n",
                   workers,
                   static_cast<unsigned long long>(m.result.pair_count),
                   static_cast<unsigned long long>(sequential.pair_count));
      ok = false;
    }
    uint64_t executed = 0;
    for (const uint64_t c : m.result.worker_task_counts) executed += c;
    if (executed != m.result.task_count) {
      std::fprintf(stderr, "FAIL workers=%u: workers ran %llu of %zu tasks\n",
                   workers, static_cast<unsigned long long>(executed),
                   m.result.task_count);
      ok = false;
    }
    if (m.result.task_count >= workers &&
        (m.result.worker_task_counts.size() != workers || spread.min == 0)) {
      std::fprintf(stderr,
                   "FAIL workers=%u: %zu tasks but a worker ran none "
                   "(min %llu over %zu workers)\n",
                   workers, m.result.task_count,
                   static_cast<unsigned long long>(spread.min),
                   m.result.worker_task_counts.size());
      ok = false;
    }
  }

  if (!ok) {
    std::fprintf(stderr, "\nbench_parallel_scaling: SELF-CHECK FAILED\n");
    return 1;
  }
  std::printf(
      "\nself-check passed: depth-adaptive declustering into block-dealt\n"
      "tasks gives the sequential pair count at every worker count, and\n"
      "every worker ran a task.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
