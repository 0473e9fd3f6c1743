// The paper's evaluation (§4–§5) as one experiment grid: tests A–E, pages
// of 1–8 KByte and LRU buffers of 0–512 KByte, reported as Tables 1–8 and
// Figures 2 and 8–10, plus the index-build ablation `substrate`.
//
//   bench_paper [--table=<name>|all] [--scale=<f>] [--json=<file>]
//
// Each tree pair, keyed by (test, page size, index build), is built at most
// once per process, and each distinct join, keyed by (tree pair, algorithm,
// buffer bytes, height policy), runs at most once. The tables are views
// over those memoized runs, so --table=<name> builds and runs only what
// that table needs.
//
// --json writes one JSON object per line, in a fixed order: the scale, one
// record per tree (Table 1's columns), one per test (Table 8's) and one per
// join (its configuration and counters). Records hold deterministic values
// only: wall clock is measured by rsjbench, and the cost-model seconds the
// figures print derive from the counters. bench/BENCH_paper.json holds the
// records at --scale=0.02, and the ctest bench_paper_baseline diffs a fresh
// run against it, so a change that moves a paper counter re-records it.
//
// Exits 1 when a join's pair count differs from its test's full-relation
// plane sweep (FullSweepJoin, which uses no tree), when test C's trees have
// equal heights at every page size (Table 7 then checks nothing), or when
// Table 7's policy (b) reads more pages than (a) without a buffer; exits 2
// on a bad --scale, --table or --json.

#include <compare>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "bench/bench_common.h"

namespace rsj {
namespace bench {
namespace {

// The paper's experiment grid.
constexpr uint32_t kPageSizes[] = {kPageSize1K, kPageSize2K, kPageSize4K,
                                   kPageSize8K};
constexpr uint64_t kBufferSizes[] = {0, 8 * 1024, 32 * 1024, 128 * 1024,
                                     512 * 1024};
constexpr TestCase kA = TestCase::kA;
constexpr HeightPolicy kB = HeightPolicy::kBatchedSubtree;

// How a tree is built: the paper's R*-insertion, or one of the substrate
// ablation's alternatives.
enum class IndexBuild { kRStar, kRStarNoReinsert, kQuadratic, kLinear, kStr };

const char* IndexBuildName(IndexBuild build) {
  constexpr const char* kNames[] = {"rstar", "rstar_no_reinsert",
                                    "quadratic", "linear", "str"};
  return kNames[static_cast<int>(build)];
}

struct TreeKey {
  TestCase test;
  uint32_t page_size;
  IndexBuild build = IndexBuild::kRStar;
  auto operator<=>(const TreeKey&) const = default;
};

struct JoinKey {
  TreeKey trees;
  JoinAlgorithm algorithm;
  uint64_t buffer_bytes;
  HeightPolicy policy;
  auto operator<=>(const JoinKey&) const = default;
};

std::unique_ptr<RTree> BuildTree(PagedFile* file, const Dataset& data,
                                 IndexBuild build) {
  RTreeOptions options;
  options.page_size = file->page_size();
  if (build == IndexBuild::kStr) {
    auto tree = std::make_unique<RTree>(file, options);
    const std::vector<Rect> mbrs = data.Mbrs();
    std::vector<Entry> entries;
    entries.reserve(mbrs.size());
    for (uint32_t i = 0; i < mbrs.size(); ++i) {
      entries.push_back(Entry{mbrs[i], i});
    }
    tree->BulkLoadStr(entries, /*fill_fraction=*/1.0);
    return tree;
  }
  options.forced_reinsert = build == IndexBuild::kRStar;
  if (build == IndexBuild::kQuadratic) options.split_policy = SplitPolicy::kQuadratic;
  if (build == IndexBuild::kLinear) options.split_policy = SplitPolicy::kLinear;
  return std::make_unique<RTree>(BuildRTree(file, data.Mbrs(), options));
}

// The memoized inputs and runs of one process.
class Grid {
 public:
  explicit Grid(double scale) : scale_(scale) {}

  double scale() const { return scale_; }
  // False once a join's pair count differed from its test's full sweep.
  bool ok() const { return ok_; }

  const Workload& Data(TestCase test) { return Test(test).workload; }
  uint64_t Intersections(TestCase test) { return Test(test).intersections; }

  // Builds the pairs among `keys` not built yet, each tree on a thread.
  void Build(const std::vector<TreeKey>& keys) {
    std::vector<std::pair<TreeKey, TreePair*>> missing;
    for (const TreeKey& key : keys) {
      if (trees_.contains(key)) continue;
      Data(key.test);  // made before the threads read it
      TreePair& pair = trees_[key];
      pair.file_r = std::make_unique<PagedFile>(key.page_size);
      pair.file_s = std::make_unique<PagedFile>(key.page_size);
      missing.emplace_back(key, &pair);
    }
    std::vector<std::thread> threads;
    for (const auto& [key, pair] : missing) {
      const Workload& w = Data(key.test);
      threads.emplace_back([&w, pair, key] {
        pair->r = BuildTree(pair->file_r.get(), w.r, key.build);
      });
      threads.emplace_back([&w, pair, key] {
        pair->s = BuildTree(pair->file_s.get(), w.s, key.build);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  const TreePair& Trees(const TreeKey& key) {
    Build({key});
    return trees_.at(key);
  }

  const Statistics& Join(TestCase test, uint32_t page_size,
                         JoinAlgorithm algorithm, uint64_t buffer_bytes,
                         HeightPolicy policy = kB,
                         IndexBuild build = IndexBuild::kRStar) {
    const JoinKey key{{test, page_size, build}, algorithm, buffer_bytes,
                      policy};
    auto it = joins_.find(key);
    if (it != joins_.end()) return it->second;
    const TreePair& pair = Trees(key.trees);
    JoinOptions options;
    options.algorithm = algorithm;
    options.buffer_bytes = buffer_bytes;
    options.height_policy = policy;
    const Statistics& stats =
        joins_.emplace(key, RunSpatialJoin(*pair.r, *pair.s, options).stats)
            .first->second;
    if (stats.output_pairs != Intersections(test)) {
      std::printf("FAIL: %s finds %llu pairs, the full sweep %llu\n",
                  JoinJson(key).c_str(),
                  static_cast<unsigned long long>(stats.output_pairs),
                  static_cast<unsigned long long>(Intersections(test)));
      ok_ = false;
    }
    return stats;
  }

  void WriteJson(std::FILE* out) const {
    std::fprintf(out, "{\"scale\":%g}\n", scale_);
    for (const auto& [key, pair] : trees_) {
      for (const RTree* tree : {pair.r.get(), pair.s.get()}) {
        const TreeStats st = tree->ComputeStats();
        std::fprintf(out,
                     "{\"record\":\"tree\",%s,\"side\":\"%s\",\"M\":%u,"
                     "\"height\":%d,\"dir_pages\":%zu,\"data_pages\":%zu}\n",
                     TreeJson(key).c_str(), tree == pair.r.get() ? "R" : "S",
                     tree->capacity(), st.height, st.dir_pages,
                     st.data_pages);
      }
    }
    for (const auto& [test, data] : tests_) {
      std::fprintf(out,
                   "{\"record\":\"test\",\"test\":\"%s\",\"r\":%zu,"
                   "\"s\":%zu,\"intersections\":%llu}\n",
                   TestCaseName(test), data.workload.r.objects.size(),
                   data.workload.s.objects.size(),
                   static_cast<unsigned long long>(data.intersections));
    }
    for (const auto& [key, st] : joins_) {
      std::fprintf(
          out,
          "{\"record\":\"join\",%s,\"disk_reads\":%llu,"
          "\"join_comparisons\":%llu,\"sort_comparisons\":%llu,"
          "\"schedule_comparisons\":%llu,\"node_pairs\":%llu,"
          "\"window_queries\":%llu,\"output_pairs\":%llu}\n",
          JoinJson(key).c_str(),
          static_cast<unsigned long long>(st.disk_reads),
          static_cast<unsigned long long>(st.join_comparisons.count()),
          static_cast<unsigned long long>(st.sort_comparisons.count()),
          static_cast<unsigned long long>(st.schedule_comparisons.count()),
          static_cast<unsigned long long>(st.node_pairs),
          static_cast<unsigned long long>(st.window_queries),
          static_cast<unsigned long long>(st.output_pairs));
    }
  }

 private:
  struct TestData {
    Workload workload;
    uint64_t intersections = 0;  // FullSweepJoin's count
  };

  const TestData& Test(TestCase test) {
    auto it = tests_.find(test);
    if (it == tests_.end()) {
      TestData data{MakeWorkload(test, scale_)};
      data.intersections = FullSweepJoin(data.workload.r.Mbrs(),
                                         data.workload.s.Mbrs(), nullptr);
      it = tests_.emplace(test, std::move(data)).first;
    }
    return it->second;
  }

  static std::string TreeJson(const TreeKey& key) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "\"test\":\"%s\",\"page_size\":%u,\"build\":\"%s\"",
                  TestCaseName(key.test), key.page_size,
                  IndexBuildName(key.build));
    return buf;
  }

  static std::string JoinJson(const JoinKey& key) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ",\"algorithm\":\"%s\",\"buffer_bytes\":%llu,"
                  "\"policy\":\"%s\"",
                  JoinAlgorithmName(key.algorithm),
                  static_cast<unsigned long long>(key.buffer_bytes),
                  HeightPolicyName(key.policy));
    return TreeJson(key.trees) + buf;
  }

  double scale_;
  bool ok_ = true;
  std::map<TestCase, TestData> tests_;
  std::map<TreeKey, TreePair> trees_;
  std::map<JoinKey, Statistics> joins_;
};

// Test `test`'s R*-tree pairs at every page size.
std::vector<TreeKey> AllPages(TestCase test) {
  std::vector<TreeKey> keys;
  for (const uint32_t page_size : kPageSizes) keys.push_back({test, page_size});
  return keys;
}

std::string KByte(uint64_t bytes) {
  return std::to_string(bytes / 1024) + " KByte";
}

const std::vector<std::string> kPageHeader = {"1 KByte", "2 KByte",
                                              "4 KByte", "8 KByte"};

std::vector<std::string> Cells(const uint64_t (&values)[4]) {
  std::vector<std::string> cells;
  for (const uint64_t v : values) cells.push_back(Num(v));
  return cells;
}

// One row per buffer size of `cell(buffer, page_size)` over the page sizes.
template <typename Cell>
void PrintBufferRows(Cell cell) {
  PrintRow("buffer \\ page", kPageHeader);
  for (const uint64_t buffer : kBufferSizes) {
    std::vector<std::string> cells;
    for (const uint32_t page_size : kPageSizes) {
      cells.push_back(cell(buffer, page_size));
    }
    PrintRow(KByte(buffer), cells);
  }
}

// The paper's cost model applied to the joins of test A (Figures 2 and 8's
// lower diagrams): I/O and CPU seconds per page size at one buffer size.
void PrintTimeSplit(Grid& g, JoinAlgorithm algorithm, uint64_t buffer) {
  const CostModel model;
  PrintRow("page size", {"I/O-time", "CPU-time", "total", "bound"});
  for (const uint32_t page_size : kPageSizes) {
    const Statistics& st = g.Join(kA, page_size, algorithm, buffer);
    const double io = model.IoSeconds(st.disk_reads, page_size);
    const double cpu = model.CpuSeconds(st.TotalComparisons());
    PrintRow(KByte(page_size), {Dbl(io, 1), Dbl(cpu, 1), Dbl(io + cpu, 1),
                                io > cpu ? "I/O" : "CPU"});
  }
}

// Total cost-model seconds per page size and buffer size (Figures 2 and
// 8's upper diagrams).
void PrintTotalTimes(Grid& g, JoinAlgorithm algorithm) {
  const CostModel model;
  std::printf("\n-- upper diagram: total time (seconds) --\n");
  PrintBufferRows([&](uint64_t buffer, uint32_t page_size) {
    return Dbl(model.TotalSeconds(
                   g.Join(kA, page_size, algorithm, buffer), page_size),
               1);
  });
}

double TimeFactor(Grid& g, TestCase test, uint32_t page_size,
                  JoinAlgorithm baseline, uint64_t buffer) {
  const CostModel model;
  return model.TotalSeconds(g.Join(test, page_size, baseline, buffer),
                            page_size) /
         model.TotalSeconds(g.Join(test, page_size, JoinAlgorithm::kSJ4,
                                   buffer),
                            page_size);
}

// Table 1 — properties of the R*-trees of test A, next to the paper's.
bool Table1(Grid& g) {
  // M, h(R), |R|dir, |R|dat, h(S), |S|dir, |S|dat, |R|+|S| per page size.
  constexpr uint64_t kPaper[4][8] = {
      {51, 4, 127, 4202, 4, 117, 2996, 8442},
      {102, 3, 33, 2143, 3, 30, 1991, 4197},
      {204, 3, 9, 1069, 3, 8, 1005, 2091},
      {409, 3, 3, 541, 3, 3, 495, 1042},
  };
  PrintBanner("Table 1: properties of R*-trees R and S (workload A)",
              "Table 1", g.scale());
  const Workload& w = g.Data(kA);
  std::printf("R = %s\nS = %s\n\n", w.r.Describe().c_str(),
              w.s.Describe().c_str());
  g.Build(AllPages(kA));
  PrintRow("page size",
           {"M", "h(R)", "|R|dir", "|R|dat", "h(S)", "|S|dir", "|S|dat",
            "|R|+|S|"});
  for (size_t i = 0; i < std::size(kPageSizes); ++i) {
    const TreePair& pair = g.Trees({kA, kPageSizes[i]});
    const TreeStats sr = pair.r->ComputeStats();
    const TreeStats ss = pair.s->ComputeStats();
    const std::string page = KByte(kPageSizes[i]);
    PrintRow(page + " (measured)",
             {Num(pair.r->capacity()), Num(static_cast<uint64_t>(sr.height)),
              Num(sr.dir_pages), Num(sr.data_pages),
              Num(static_cast<uint64_t>(ss.height)), Num(ss.dir_pages),
              Num(ss.data_pages), Num(sr.TotalPages() + ss.TotalPages())});
    if (g.scale() == 1.0) {
      std::vector<std::string> paper;
      for (const uint64_t v : kPaper[i]) paper.push_back(Num(v));
      PrintRow(page + " (paper)", paper);
    }
  }
  std::printf(
      "\nNote: M matches the paper exactly (20-byte entries, 4-byte page\n"
      "header); page counts differ by the storage utilization of the\n"
      "insertion order, heights must match.\n");
  return true;
}

// Table 2 — disk accesses of SJ1 per page and buffer size, the optimum
// |R|+|S| and the (buffer-independent) comparisons, on test A.
bool Table2(Grid& g) {
  constexpr uint64_t kPaperAccesses[5][4] = {
      {24727, 12479, 5720, 2837}, {20318, 12010, 5720, 2837},
      {13803, 9589, 5454, 2822},  {11359, 6299, 4474, 2676},
      {10372, 4964, 2768, 2181},
  };
  constexpr uint64_t kPaperOptimum[4] = {8442, 4197, 2091, 1042};
  constexpr uint64_t kPaperComparisons[4] = {33566961, 65807555, 118864748,
                                             242728164};
  PrintBanner("Table 2: disk accesses and comparisons of SpatialJoin1",
              "Table 2, Section 4.1", g.scale());
  g.Build(AllPages(kA));
  PrintRow("buffer \\ page", kPageHeader);
  for (size_t b = 0; b < std::size(kBufferSizes); ++b) {
    std::vector<std::string> cells;
    for (const uint32_t page_size : kPageSizes) {
      cells.push_back(Num(
          g.Join(kA, page_size, JoinAlgorithm::kSJ1, kBufferSizes[b])
              .disk_reads));
    }
    PrintRow(KByte(kBufferSizes[b]), cells);
    if (g.scale() == 1.0) PrintRow("          (paper)", Cells(kPaperAccesses[b]));
  }
  std::vector<std::string> optimum;
  std::vector<std::string> comparisons;
  for (const uint32_t page_size : kPageSizes) {
    const TreePair& pair = g.Trees({kA, page_size});
    optimum.push_back(Num(pair.r->ComputeStats().TotalPages() +
                          pair.s->ComputeStats().TotalPages()));
    comparisons.push_back(Num(
        g.Join(kA, page_size, JoinAlgorithm::kSJ1, 0).TotalComparisons()));
  }
  PrintRow("opt. buffer size", optimum);
  if (g.scale() == 1.0) PrintRow("          (paper)", Cells(kPaperOptimum));
  PrintRow("# comparisons", comparisons);
  if (g.scale() == 1.0) {
    PrintRow("          (paper)", Cells(kPaperComparisons));
  }
  return true;
}

// Table 3 — comparisons of SJ1 and SJ2 (search-space restriction) on A.
bool Table3(Grid& g) {
  constexpr uint64_t kPaperSJ1[4] = {33566961, 65807555, 118864748,
                                     242728164};
  constexpr uint64_t kPaperSJ2[4] = {7316389, 10347688, 15796183, 27219893};
  PrintBanner("Table 3: comparisons with/without search space restriction",
              "Table 3, Section 4.2", g.scale());
  g.Build(AllPages(kA));
  std::vector<std::string> sj1_cells, sj2_cells, gain_cells;
  for (const uint32_t page_size : kPageSizes) {
    const uint64_t sj1 =
        g.Join(kA, page_size, JoinAlgorithm::kSJ1, 0).TotalComparisons();
    const uint64_t sj2 =
        g.Join(kA, page_size, JoinAlgorithm::kSJ2, 0).TotalComparisons();
    sj1_cells.push_back(Num(sj1));
    sj2_cells.push_back(Num(sj2));
    gain_cells.push_back(
        Dbl(static_cast<double>(sj1) / static_cast<double>(sj2)));
  }
  PrintRow("", kPageHeader);
  PrintRow("SpatialJoin1", sj1_cells);
  PrintRow("SpatialJoin2", sj2_cells);
  PrintRow("performance gain", gain_cells);
  if (g.scale() == 1.0) {
    std::printf("\n-- paper --\n");
    PrintRow("SpatialJoin1", Cells(kPaperSJ1));
    PrintRow("SpatialJoin2", Cells(kPaperSJ2));
    PrintRow("performance gain", {"4.59", "6.36", "7.52", "8.92"});
  }
  return true;
}

// Table 4 — comparisons with sorted nodes: version (I) sweeps without the
// search-space restriction, version (II) with it (SJ3's CPU side). Each
// splits the join proper from the sorting, and the repeat-factor is how
// often a page can be re-sorted before (II) loses to the unsorted SJ2.
bool Table4(Grid& g) {
  // A buffer large enough that every page is read (and therefore sorted)
  // exactly once — the paper's "entries are sorted as desired" assumption.
  constexpr uint64_t kInfiniteBuffer = 1ull << 30;
  PrintBanner("Table 4: comparisons of spatial joins with/without sorting",
              "Table 4, Section 4.2", g.scale());
  g.Build(AllPages(kA));
  std::vector<std::string> v1_join, v1_sort, v1_ratio;
  std::vector<std::string> v2_join, v2_sort, v2_ratio1, v2_ratio2, repeat;
  for (const uint32_t page_size : kPageSizes) {
    const double sj1 = static_cast<double>(
        g.Join(kA, page_size, JoinAlgorithm::kSJ1, 0).TotalComparisons());
    const uint64_t sj2 =
        g.Join(kA, page_size, JoinAlgorithm::kSJ2, 0).TotalComparisons();
    const Statistics& v1 = g.Join(
        kA, page_size, JoinAlgorithm::kSweepUnrestricted, kInfiniteBuffer);
    const Statistics& v2 =
        g.Join(kA, page_size, JoinAlgorithm::kSJ3, kInfiniteBuffer);
    const uint64_t v2_join_count = v2.join_comparisons.count();
    v1_join.push_back(Num(v1.join_comparisons.count()));
    v1_sort.push_back(Num(v1.sort_comparisons.count()));
    v1_ratio.push_back(Dbl(sj1 / v1.join_comparisons.count()));
    v2_join.push_back(Num(v2_join_count));
    v2_sort.push_back(Num(v2.sort_comparisons.count()));
    v2_ratio1.push_back(Dbl(sj1 / v2_join_count));
    v2_ratio2.push_back(Dbl(static_cast<double>(sj2) / v2_join_count));
    // (cmp(SJ2) - cmp(join II)) / cmp(sort all pages once).
    repeat.push_back(Dbl(static_cast<double>(sj2 - v2_join_count) /
                         static_cast<double>(v2.sort_comparisons.count())));
  }
  PrintRow("", kPageHeader);
  std::printf("-- version (I): sorting, no search space restriction --\n");
  PrintRow("join", v1_join);
  PrintRow("sorting", v1_sort);
  PrintRow("join-ratio to SJ1", v1_ratio);
  std::printf("-- version (II): sorting + restricting the search space --\n");
  PrintRow("join", v2_join);
  PrintRow("sorting", v2_sort);
  PrintRow("join-ratio to SJ1", v2_ratio1);
  PrintRow("join-ratio to SJ2", v2_ratio2);
  PrintRow("repeat-factor to SJ2", repeat);
  if (g.scale() == 1.0) {
    std::printf("\n-- paper --\n");
    PrintRow("(I) join", {"4,906,048", "6,079,544", "7,202,892", "9,651,854"});
    PrintRow("(I) ratio to SJ1", {"6.84", "10.82", "16.50", "25.15"});
    PrintRow("(II) join",
             {"5,124,435", "5,521,254", "5,769,313", "6,662,370"});
    PrintRow("(II) sorting", {"768,551", "880,171", "993,419", "1,120,404"});
    PrintRow("(II) ratio to SJ1", {"6.55", "11.92", "20.60", "36.43"});
    PrintRow("(II) ratio to SJ2", {"1.43", "1.87", "2.74", "4.09"});
    PrintRow("repeat-factor", {"2.85", "5.48", "10.09", "18.35"});
  }
  return true;
}

// Table 5 — disk accesses of the read schedules on A at 4 KByte pages:
// local plane-sweep order (SJ3), with pinning (SJ4), z-order with pinning
// (SJ5), and the CPU price of SJ5's z-order.
bool Table5(Grid& g) {
  constexpr uint64_t kPaper[5][3] = {
      {6085, 5384, 5290}, {6062, 5366, 5248}, {4678, 4246, 4178},
      {3117, 3008, 2947}, {2399, 2373, 2392},
  };
  PrintBanner("Table 5: disk accesses of SJ3, SJ4 and SJ5 (4 KByte pages)",
              "Table 5, Section 4.3", g.scale());
  constexpr JoinAlgorithm kAlgorithms[] = {
      JoinAlgorithm::kSJ3, JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5};
  PrintRow("buffer size", {"SJ3", "SJ4", "SJ5"});
  for (size_t b = 0; b < std::size(kBufferSizes); ++b) {
    std::vector<std::string> cells, paper;
    for (size_t a = 0; a < std::size(kAlgorithms); ++a) {
      cells.push_back(Num(
          g.Join(kA, kPageSize4K, kAlgorithms[a], kBufferSizes[b])
              .disk_reads));
      paper.push_back(Num(kPaper[b][a]));
    }
    PrintRow(KByte(kBufferSizes[b]), cells);
    if (g.scale() == 1.0) PrintRow("       (paper)", paper);
  }
  std::printf("\nSJ5 z-order schedule overhead: %s comparisons\n",
              Num(g.Join(kA, kPageSize4K, JoinAlgorithm::kSJ5, 32 * 1024)
                      .schedule_comparisons.count())
                  .c_str());
  return true;
}

// Table 6 — SJ4's disk accesses on A, as a percentage of SJ1's, with the
// optimum |R|+|S|.
bool Table6(Grid& g) {
  constexpr uint64_t kPaperSJ4[5][4] = {
      {23088, 11530, 5384, 2703}, {17513, 10632, 5366, 2703},
      {12704, 7436, 4246, 2552},  {10856, 5685, 3008, 1857},
      {9385, 5108, 2373, 1186},
  };
  constexpr double kPaperPct[5][4] = {
      {93.4, 92.4, 94.1, 95.3}, {86.2, 88.5, 93.8, 95.3},
      {92.0, 77.5, 77.9, 90.4}, {95.6, 90.3, 67.2, 69.4},
      {90.5, 102.9, 85.7, 154.4},
  };
  PrintBanner("Table 6: I/O-performance of SJ4 vs SJ1",
              "Table 6, Section 4.3", g.scale());
  g.Build(AllPages(kA));
  PrintRow("buffer \\ page", {"1K SJ4", "(%)", "2K SJ4", "(%)", "4K SJ4",
                              "(%)", "8K SJ4", "(%)"},
           18, 10);
  for (size_t b = 0; b < std::size(kBufferSizes); ++b) {
    std::vector<std::string> cells, paper;
    for (size_t p = 0; p < std::size(kPageSizes); ++p) {
      const uint64_t sj4 =
          g.Join(kA, kPageSizes[p], JoinAlgorithm::kSJ4, kBufferSizes[b])
              .disk_reads;
      const uint64_t sj1 =
          g.Join(kA, kPageSizes[p], JoinAlgorithm::kSJ1, kBufferSizes[b])
              .disk_reads;
      cells.push_back(Num(sj4));
      cells.push_back(Dbl(100.0 * static_cast<double>(sj4) / sj1, 1));
      paper.push_back(Num(kPaperSJ4[b][p]));
      paper.push_back(Dbl(kPaperPct[b][p], 1));
    }
    PrintRow(KByte(kBufferSizes[b]), cells, 18, 10);
    if (g.scale() == 1.0) PrintRow("        (paper)", paper, 18, 10);
  }
  std::vector<std::string> optimum;
  for (const uint32_t page_size : kPageSizes) {
    const TreePair& pair = g.Trees({kA, page_size});
    optimum.push_back(Num(pair.r->ComputeStats().TotalPages() +
                          pair.s->ComputeStats().TotalPages()));
    optimum.push_back("");
  }
  PrintRow("optimum", optimum, 18, 10);
  return true;
}

// Table 7 — SJ4 on test C, whose trees differ in height, under height
// policies (a), (b) and (c) (§4.4), with each policy's join comparisons
// beside the disk reads the paper reports. It runs at the paper's 2 KByte
// when C's trees differ in height there, else at the first of 1, 4 and 8
// KByte where they do (the heights depend on the scale).
bool Table7(Grid& g) {
  constexpr uint64_t kPaper[5][3] = {
      {111140, 24111, 27679}, {27586, 23288, 23822}, {18019, 17936, 17954},
      {14453, 14453, 14454},  {13038, 13038, 13038},
  };
  uint32_t page_size = 0;
  for (const uint32_t candidate :
       {kPageSize2K, kPageSize1K, kPageSize4K, kPageSize8K}) {
    // The other three are built together when 2 KByte does not do.
    if (candidate == kPageSize1K) g.Build(AllPages(TestCase::kC));
    const TreePair& pair = g.Trees({TestCase::kC, candidate});
    if (pair.r->height() != pair.s->height()) {
      page_size = candidate;
      break;
    }
  }
  std::string title = "Table 7: I/O-performance with different tree heights";
  if (page_size != 0) title += " (test C, " + KByte(page_size) + " pages)";
  PrintBanner(title.c_str(), "Table 7, Section 4.4", g.scale());
  if (page_size == 0) {
    std::printf("FAIL: test C's trees have equal heights at every page size\n");
    return false;
  }
  const TreePair& pair = g.Trees({TestCase::kC, page_size});
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
    std::vector<const Statistics*> runs;
    for (const HeightPolicy policy : kPolicies) {
      runs.push_back(&g.Join(TestCase::kC, page_size, JoinAlgorithm::kSJ4,
                             buffer, policy));
    }
    std::vector<std::string> cells;
    for (const Statistics* run : runs) cells.push_back(Num(run->disk_reads));
    for (const Statistics* run : runs) {
      cells.push_back(Num(run->join_comparisons.count()));
    }
    PrintRow(KByte(buffer), cells);
    if (g.scale() == 1.0) {
      PrintRow("       (paper)", {Num(kPaper[b][0]), Num(kPaper[b][1]),
                                  Num(kPaper[b][2])});
    }
    if (buffer == 0 && runs[1]->disk_reads > runs[0]->disk_reads) {
      std::printf("FAIL: (b) reads more pages than (a) at %s\n",
                  KByte(buffer).c_str());
      ok = false;
    }
  }
  std::printf(
      "\nPaper's shape: (b) and (c) outperform (a), dramatically without a\n"
      "buffer; all three converge once the buffer is large.\n");
  return ok;
}

// Table 8 — cardinalities and result sizes of tests A–E, from the
// full-relation plane sweep (no tree), next to the paper's.
bool Table8(Grid& g) {
  PrintBanner("Table 8: characteristics of tests (A) - (E)",
              "Table 8, Section 5", g.scale());
  PrintRow("test", {"||R||dat", "||S||dat", "intersections", "paper ||R||",
                    "paper ||S||", "paper inter."},
           6, 14);
  for (const TestCase test : kAllTestCases) {
    const Workload& w = g.Data(test);
    PrintRow(w.label,
             {Num(w.r.objects.size()), Num(w.s.objects.size()),
              Num(g.Intersections(test)), Num(w.paper_r_count),
              Num(w.paper_s_count), Num(w.paper_intersections)},
             6, 14);
  }
  std::printf(
      "\n(A) streets x rivers&railways   (B) streets x streets(2nd map)\n"
      "(C) full streets x rivers&railways   (D) rivers self join\n"
      "(E) region data x region data\n");
  return true;
}

// Figure 2 — the cost model's seconds for SJ1 on A: totals per page and
// buffer size, and the I/O vs CPU split without a buffer.
bool Fig2(Grid& g) {
  PrintBanner("Figure 2: estimated execution time of SpatialJoin1",
              "Figure 2, Section 4.1", g.scale());
  g.Build(AllPages(kA));
  PrintTotalTimes(g, JoinAlgorithm::kSJ1);
  std::printf(
      "\n-- lower diagram: I/O-time vs CPU-time (seconds, buffer = 0) --\n");
  PrintTimeSplit(g, JoinAlgorithm::kSJ1, 0);
  std::printf(
      "\nPaper's shape: best total time at 1-2 KByte pages; I/O-bound only\n"
      "at 1 KByte, increasingly CPU-bound at larger pages.\n");
  return true;
}

// Figure 8 — the same for SJ4, split at a 128 KByte buffer.
bool Fig8(Grid& g) {
  PrintBanner("Figure 8: total join time and CPU/I-O ratio of SJ4",
              "Figure 8, Section 5", g.scale());
  g.Build(AllPages(kA));
  PrintTotalTimes(g, JoinAlgorithm::kSJ4);
  std::printf(
      "\n-- lower diagram: I/O vs CPU time (seconds, buffer = 128 KByte) "
      "--\n");
  PrintTimeSplit(g, JoinAlgorithm::kSJ4, 128 * 1024);
  std::printf(
      "\nPaper's shape: best total time at 8 KByte pages (16 KByte\n"
      "extrapolated even better); I/O-bound except at large pages.\n");
  return true;
}

// Figure 9 — time(SJ1)/time(SJ4) and time(SJ2)/time(SJ4) on A.
bool Fig9(Grid& g) {
  PrintBanner("Figure 9: improvement factors of SJ4 over SJ1 and SJ2",
              "Figure 9, Section 5", g.scale());
  g.Build(AllPages(kA));
  for (const JoinAlgorithm baseline :
       {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2}) {
    std::printf("\n-- factor time(%s) / time(SJ4) --\n",
                JoinAlgorithmName(baseline));
    PrintBufferRows([&](uint64_t buffer, uint32_t page_size) {
      return Dbl(TimeFactor(g, kA, page_size, baseline, buffer));
    });
  }
  std::printf(
      "\nPaper's shape: SJ4 ~5x faster than SJ1 at 4 KByte pages, larger\n"
      "factors at larger pages, smaller at 1 KByte.\n");
  return true;
}

// Figure 10 — time(SJ1)/time(SJ4) for tests A–E at a 128 KByte buffer.
bool Fig10(Grid& g) {
  PrintBanner("Figure 10: improvement factor SJ1/SJ4 for tests (A)-(E)",
              "Figure 10, Section 5", g.scale());
  std::vector<TreeKey> keys;
  for (const TestCase test : kAllTestCases) {
    for (const TreeKey& key : AllPages(test)) keys.push_back(key);
  }
  g.Build(keys);
  PrintRow("test", kPageHeader);
  for (const TestCase test : kAllTestCases) {
    std::vector<std::string> cells;
    for (const uint32_t page_size : kPageSizes) {
      cells.push_back(Dbl(
          TimeFactor(g, test, page_size, JoinAlgorithm::kSJ1, 128 * 1024)));
    }
    PrintRow(TestCaseName(test), cells);
  }
  std::printf(
      "\nPaper's shape: factors of roughly 3-15 growing with page size for\n"
      "every dataset; test (C) dips at 2 KByte because the trees have\n"
      "different heights there.\n");
  return true;
}

// Ablation — SJ4 at 128 KByte over five builds of A's trees at 4 KByte
// pages: how much the join owes to the R*-tree's quality.
bool Substrate(Grid& g) {
  constexpr std::pair<const char*, IndexBuild> kBuilds[] = {
      {"R*-tree (paper)", IndexBuild::kRStar},
      {"R* w/o reinsertion", IndexBuild::kRStarNoReinsert},
      {"Guttman quadratic", IndexBuild::kQuadratic},
      {"Guttman linear", IndexBuild::kLinear},
      {"STR bulk loaded", IndexBuild::kStr},
  };
  PrintBanner("Ablation: index construction under SJ4",
              "premise of Section 3 (R*-tree quality)", g.scale());
  std::vector<TreeKey> keys;
  for (const auto& [label, build] : kBuilds) {
    keys.push_back({kA, kPageSize4K, build});
  }
  g.Build(keys);
  const CostModel model;
  std::printf("\n-- index construction (SJ4, 4 KByte pages, 128 KByte "
              "buffer) --\n");
  PrintRow("index", {"pages", "disk reads", "comparisons", "est. time"});
  for (const auto& [label, build] : kBuilds) {
    const TreePair& pair = g.Trees({kA, kPageSize4K, build});
    const Statistics& st =
        g.Join(kA, kPageSize4K, JoinAlgorithm::kSJ4, 128 * 1024, kB, build);
    PrintRow(label, {Num(pair.r->ComputeStats().TotalPages() +
                         pair.s->ComputeStats().TotalPages()),
                     Num(st.disk_reads), Num(st.TotalComparisons()),
                     Dbl(model.TotalSeconds(st, kPageSize4K), 1)});
  }
  return true;
}

struct Table {
  const char* name;
  bool (*run)(Grid&);
};

constexpr Table kTables[] = {
    {"table1", Table1}, {"table2", Table2}, {"table3", Table3},
    {"table4", Table4}, {"table5", Table5}, {"table6", Table6},
    {"table7", Table7}, {"table8", Table8}, {"fig2", Fig2},
    {"fig8", Fig8},     {"fig9", Fig9},     {"fig10", Fig10},
    {"substrate", Substrate},
};

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"table", "json"});
  const double scale = flags.Scale();
  const std::string table = flags.String("table", "all");
  const std::string json = flags.String("json");
  bool known = table == "all";
  for (const Table& t : kTables) known = known || table == t.name;
  if (!known) {
    std::fprintf(stderr,
                 "invalid --table '%s': expected all, table1 .. table8, "
                 "fig2, fig8, fig9, fig10 or substrate\n",
                 table.c_str());
    return 2;
  }
  std::FILE* out = nullptr;
  if (!json.empty() && (out = std::fopen(json.c_str(), "w")) == nullptr) {
    std::fprintf(stderr, "cannot write --json '%s'\n", json.c_str());
    return 2;
  }
  Grid grid(scale);
  bool ok = true;
  for (const Table& t : kTables) {
    if (table == "all" || table == t.name) ok = t.run(grid) && ok;
  }
  if (out != nullptr) {
    grid.WriteJson(out);
    const bool write_failed = std::ferror(out) != 0;
    if (std::fclose(out) != 0 || write_failed) {
      std::fprintf(stderr, "cannot write --json '%s'\n", json.c_str());
      return 2;
    }
  }
  return ok && grid.ok() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
