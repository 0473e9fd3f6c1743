// Table 7 — I/O-performance for R*-trees of different height.
//
// Workload C (598,677-record street file R vs 128,971-record rivers file S)
// at 2 KByte pages: with these cardinalities R is one level taller than S,
// so the join bottoms out in (directory, data-node) pairs that are resolved
// by window queries under policy (a), (b) or (c). The directory-directory
// levels run SpatialJoin4, exactly as in the paper.
//
// Table 7 reports disk accesses only; beside them this bench prints each
// policy's join comparisons, the CPU side of the same runs. It exits
// non-zero when the three policies' result pair counts differ at any
// buffer size, or when (b) reads more pages than (a) without a buffer.

#include "bench/bench_common.h"

namespace rsj {
namespace bench {
namespace {

constexpr uint64_t kPaper[5][3] = {
    {111140, 24111, 27679},
    {27586, 23288, 23822},
    {18019, 17936, 17954},
    {14453, 14453, 14454},
    {13038, 13038, 13038},
};

int Main(int argc, char** argv) {
  const double scale = ParseScale(argc, argv);
  PrintBanner("Table 7: I/O-performance with different tree heights",
              "Table 7, Section 4.4", scale);
  const Workload w = MakeWorkload(TestCase::kC, scale);
  const TreePair pair = BuildTreePair(w.r, w.s, kPageSize2K);
  std::printf("height(R) = %d, height(S) = %d\n\n", pair.r->height(),
              pair.s->height());

  constexpr HeightPolicy kPolicies[] = {HeightPolicy::kPerPairQueries,
                                        HeightPolicy::kBatchedSubtree,
                                        HeightPolicy::kPinnedQueries};
  bool ok = true;
  PrintRow("buffer size", {"(a) reads", "(b) reads", "(c) reads",
                           "(a) comps", "(b) comps", "(c) comps"});
  for (size_t b = 0; b < std::size(kBufferSizes); ++b) {
    const uint64_t buffer = kBufferSizes[b];
    Statistics runs[std::size(kPolicies)];
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
      runs[p] = RunJoin(pair, JoinAlgorithm::kSJ4, buffer, kPolicies[p]);
    }
    std::vector<std::string> cells;
    for (const Statistics& run : runs) cells.push_back(Num(run.disk_reads));
    for (const Statistics& run : runs) {
      cells.push_back(Num(run.join_comparisons.count()));
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%llu KByte",
                  static_cast<unsigned long long>(buffer / 1024));
    PrintRow(label, cells);
    if (scale == 1.0) {
      PrintRow("       (paper)", {Num(kPaper[b][0]), Num(kPaper[b][1]),
                                  Num(kPaper[b][2])});
    }
    for (const Statistics& run : runs) {
      if (run.output_pairs != runs[0].output_pairs) {
        std::printf("FAIL: the policies' pair counts differ at %s\n", label);
        ok = false;
        break;
      }
    }
    if (buffer == 0 && runs[1].disk_reads > runs[0].disk_reads) {
      std::printf("FAIL: (b) reads more pages than (a) at %s\n", label);
      ok = false;
    }
  }
  std::printf(
      "\nPaper's shape: (b) and (c) outperform (a), dramatically without a\n"
      "buffer; all three converge once the buffer is large.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
