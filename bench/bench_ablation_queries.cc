// Ablation — single-scan query performance across index builds.
//
// §3 justifies the R*-tree as "the most efficient member of the R-tree
// family" for single-scan queries; this bench verifies that premise on the
// reproduction's data: window queries (the paper's example query) and
// k-nearest-neighbor queries over streets indexed by R*-insertion, Guttman
// quadratic/linear insertion, and STR bulk loading, measured in buffered
// page reads through a 128 KByte LRU buffer.

#include "bench/bench_common.h"
#include "rtree/knn.h"

#include "datagen/rng.h"

namespace rsj {
namespace bench {
namespace {

// Buffered, counted window query (the joins' accounting applied to the
// single-scan case).
void CountedWindowQuery(const RTree& tree, BufferPool* pool,
                        Statistics* stats, const Rect& window,
                        std::vector<uint32_t>* results) {
  std::vector<PageId> stack{tree.root_page()};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    pool->Read(tree.file(), page, stats);
    const Node node = Node::Load(tree.file(), page);
    for (const Entry& e : node.entries) {
      if (!e.rect.IntersectsCounted(window, &stats->join_comparisons)) {
        continue;
      }
      if (node.is_leaf()) {
        results->push_back(e.ref);
      } else {
        stack.push_back(e.ref);
      }
    }
  }
}

void Report(const char* label, const RTree& tree,
            const std::vector<Rect>& windows) {
  Statistics stats;
  BufferPool pool(BufferPool::Options{128 * 1024, kPageSize4K});
  std::vector<uint32_t> results;
  uint64_t total_results = 0;
  for (const Rect& w : windows) {
    results.clear();
    CountedWindowQuery(tree, &pool, &stats, w, &results);
    total_results += results.size();
  }
  const TreeStats ts = tree.ComputeStats();
  PrintRow(label, {Num(ts.TotalPages()), Num(stats.disk_reads),
                   Num(stats.join_comparisons.count()), Num(total_results)});
}

int Main(int argc, char** argv) {
  const double scale = ParseScale(argc, argv);
  PrintBanner("Ablation: single-scan queries across index builds",
              "premise of Section 3 (R*-tree quality)", scale);
  const Workload w = MakeWorkload(TestCase::kA, scale);
  const auto mbrs = w.r.Mbrs();

  // 1000 window queries of mixed sizes over the data space.
  Rng rng(4711);
  std::vector<Rect> windows;
  for (int i = 0; i < 1000; ++i) {
    const double extent = rng.Uniform(0.001, 0.05);
    const double x = rng.Uniform(0.0, 1.0 - extent);
    const double y = rng.Uniform(0.0, 1.0 - extent);
    windows.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                           static_cast<Coord>(x + extent),
                           static_cast<Coord>(y + extent)});
  }

  PrintRow("index", {"pages", "disk reads", "comparisons", "results"});
  {
    RTreeOptions options;
    options.page_size = kPageSize4K;
    PagedFile file(options.page_size);
    const RTree tree = BuildRTree(&file, mbrs, options);
    Report("R*-tree (paper)", tree, windows);

    // KNN on the R* index (sanity of the extension at scale).
    const auto knn = KnnQuery(tree, Point{0.5f, 0.5f}, 10);
    std::printf("\n10-NN of the map center on the R* index: %zu results, "
                "nearest distance^2 %.3g\n\n",
                knn.size(), knn.empty() ? 0.0 : knn.front().distance2);
  }
  {
    RTreeOptions options;
    options.page_size = kPageSize4K;
    options.split_policy = SplitPolicy::kQuadratic;
    options.forced_reinsert = false;
    PagedFile file(options.page_size);
    Report("Guttman quadratic", BuildRTree(&file, mbrs, options), windows);
  }
  {
    RTreeOptions options;
    options.page_size = kPageSize4K;
    options.split_policy = SplitPolicy::kLinear;
    options.forced_reinsert = false;
    PagedFile file(options.page_size);
    Report("Guttman linear", BuildRTree(&file, mbrs, options), windows);
  }
  {
    RTreeOptions options;
    options.page_size = kPageSize4K;
    PagedFile file(options.page_size);
    RTree tree(&file, options);
    std::vector<Entry> entries;
    for (uint32_t i = 0; i < mbrs.size(); ++i) {
      entries.push_back(Entry{mbrs[i], i});
    }
    tree.BulkLoadStr(entries, 1.0);
    Report("STR bulk loaded", tree, windows);
  }
  std::printf(
      "\nExpected shape (R*-tree paper): R* < quadratic < linear in both\n"
      "reads and comparisons; STR competitive on static data.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
