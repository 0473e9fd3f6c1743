// Async I/O overlap — prefetch on/off over 1/2/4/8 simulated disks.
//
// The paper's SJ3–SJ5 compute a good *read schedule* (§4.3) and its
// experiments stripe the R-trees over a disk array; with the synchronous
// substrate the schedule quality only shows up as counted reads. This
// bench runs SJ4 on workload A over the simulated disk array
// (io/disk_model.h) and A/Bs the schedule-driven prefetcher
// (io/prefetcher.h): with prefetch OFF every miss is one outstanding
// request that serializes the array; with prefetch ON the engine streams
// each schedule ahead and the per-disk queues work in parallel with each
// other and with the modeled CPU.
//
// Reported per configuration: result pairs (identical by construction),
// physical reads, prefetch issued/hits/wasted, modeled elapsed ms and the
// on/off speedup. Each row is also emitted as a JSON line (prefix
// "JSON "). Every configuration runs twice. The process exits non-zero
// when a disk count >= 2 does not show a modeled win, any pair count
// diverges, or the two runs of a configuration differ in pairs, reads,
// prefetch counters or modeled elapsed time (the I/O scheduler services
// requests in call order, so a one-thread run is deterministic), so CI
// smoke runs enforce the acceptance criteria.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace rsj {
namespace bench {
namespace {

struct Measured {
  JoinRunResult result;
  uint64_t elapsed_micros = 0;
};

Measured MeasureOnce(const TreePair& pair, const JoinOptions& jopt,
                     unsigned disks, bool prefetch) {
  IoScheduler::Options sopt;
  sopt.disks.disk_count = disks;
  // Modeled CPU per consumed page: roughly the paper's comparison cost of
  // one node's pair finding — the work a prefetcher overlaps with I/O.
  sopt.cpu_micros_per_read = 1000;
  IoScheduler io(sopt);
  Measured m;
  m.result = RunSpatialJoinWithIo(*pair.r, *pair.s, jopt, &io, prefetch,
                                  /*prefetch_ahead=*/16,
                                  /*collect_pairs=*/false, &m.elapsed_micros);
  return m;
}

bool SameRun(const Measured& a, const Measured& b) {
  const Statistics& x = a.result.stats;
  const Statistics& y = b.result.stats;
  return a.result.pair_count == b.result.pair_count &&
         x.disk_reads == y.disk_reads &&
         x.prefetch_issued == y.prefetch_issued &&
         x.prefetch_hits == y.prefetch_hits &&
         x.prefetch_wasted == y.prefetch_wasted &&
         a.elapsed_micros == b.elapsed_micros;
}

// Runs the configuration twice; clears `*ok` when the runs differ.
Measured Measure(const TreePair& pair, const JoinOptions& jopt,
                 unsigned disks, bool prefetch, bool* ok) {
  Measured first = MeasureOnce(pair, jopt, disks, prefetch);
  const Measured second = MeasureOnce(pair, jopt, disks, prefetch);
  if (!SameRun(first, second)) {
    std::printf(
        "FAIL: two runs differ at %u disks, prefetch %s "
        "(%llu vs %llu us)\n",
        disks, prefetch ? "on" : "off",
        static_cast<unsigned long long>(first.elapsed_micros),
        static_cast<unsigned long long>(second.elapsed_micros));
    *ok = false;
  }
  return first;
}

void EmitJson(unsigned disks, bool prefetch, const Measured& m,
              double speedup) {
  std::printf(
      "JSON {\"bench\":\"io_overlap\",\"disks\":%u,\"prefetch\":%s,"
      "\"pairs\":%llu,\"modeled_elapsed_micros\":%llu,"
      "\"modeled_speedup\":%.3f,%s}\n",
      disks, prefetch ? "true" : "false",
      static_cast<unsigned long long>(m.result.pair_count),
      static_cast<unsigned long long>(m.elapsed_micros), speedup,
      IoCountersJson(m.result.stats).c_str());
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner(
      "Async I/O overlap (SJ4, 4 KByte pages, 128 KByte buffer; "
      "schedule-driven prefetch over a simulated disk array)",
      "Section 4.3 read schedules + Section 5 disk-array setting", scale);
  const Workload w = MakeWorkload(TestCase::kA, scale);
  const TreePair pair = BuildTreePair(w.r, w.s, kPageSize4K);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 128 * 1024;

  PrintRow("disks", {"pairs", "reads", "pf issued", "pf hits", "pf wasted",
                     "elapsed (ms)", "speedup"});
  bool ok = true;
  uint64_t baseline_pairs = 0;
  for (const unsigned disks : {1u, 2u, 4u, 8u}) {
    const Measured off = Measure(pair, jopt, disks, /*prefetch=*/false, &ok);
    const Measured on = Measure(pair, jopt, disks, /*prefetch=*/true, &ok);
    if (disks == 1) baseline_pairs = off.result.pair_count;

    const double speedup = static_cast<double>(off.elapsed_micros) /
                           static_cast<double>(std::max<uint64_t>(
                               1, on.elapsed_micros));
    char label[32];
    for (const Measured* m : {&off, &on}) {
      const bool prefetch = m == &on;
      std::snprintf(label, sizeof(label), "%u (%s)", disks,
                    prefetch ? "prefetch" : "sync");
      PrintRow(label,
               {Num(m->result.pair_count), Num(m->result.stats.disk_reads),
                Num(m->result.stats.prefetch_issued),
                Num(m->result.stats.prefetch_hits),
                Num(m->result.stats.prefetch_wasted),
                Dbl(static_cast<double>(m->elapsed_micros) / 1000.0, 1),
                prefetch ? Dbl(speedup) : std::string("1.00")});
      EmitJson(disks, prefetch, *m, prefetch ? speedup : 1.0);
    }

    if (on.result.pair_count != off.result.pair_count ||
        on.result.pair_count != baseline_pairs) {
      std::printf("FAIL: pair counts diverge at %u disks\n", disks);
      ok = false;
    }
    if (disks >= 2 && on.elapsed_micros >= off.elapsed_micros) {
      std::printf(
          "FAIL: prefetch shows no modeled win at %u disks "
          "(%llu >= %llu us)\n",
          disks, static_cast<unsigned long long>(on.elapsed_micros),
          static_cast<unsigned long long>(off.elapsed_micros));
      ok = false;
    }
  }

  std::printf(
      "\nIdentical result pairs in every configuration. Synchronous misses\n"
      "keep one request outstanding, so the array is idle while the join\n"
      "computes; the schedule-driven prefetcher issues the §4.3 read order\n"
      "ahead, which keeps every disk busy — the win grows with the\n"
      "disk count, independent of host core count.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
