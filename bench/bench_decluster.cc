// Declustered (sharded) join scaling — the scale-out experiment over the
// src/shard/ layer, SELF-CHECKING.
//
// Two workload shapes where declustering matters:
//   * clustered — Gaussian city blobs on both sides (the paper's maps),
//   * skewed    — 80% of one side piled into one corner quadrant, the
//                 classic declustering stress (one tile region holds most
//                 of the work; balance must come from the z-order cut).
//
// For each workload and K in {2, 4, 8}: build the declustering, join the
// shard pairs (2 worker threads per shard pair, private 2-disk modeled
// array per shard), and compare against the single-tree SJ4 executor.
// The run FAILS (non-zero exit) if any sharded pair multiset differs from
// the single-tree result, the dedup ledger does not balance, or the
// sharded run's sort comparisons exceed twice the single-tree join's on
// the same data — the bench doubles as an end-to-end exactness check on
// real-sized inputs, which is why CI smoke-runs it. The last gate holds
// the §4.2 sort on read to its ~n - 1 comparisons per page read: the STR
// shard trees store every node in lower-x order, as the insertion-built
// single tree does, and a shard build that left pages unsorted would pay a
// from-scratch insertion sort per read (about 20x the single tree's).
//
// Reported per row: wall-clock speedup over the single-tree join,
// replication overhead, work-balance spread across shards, the dedup
// ledger, the max/sum modeled micros of the per-shard disk arrays
// (sum/max = the modeled scale-out factor of K independent nodes), and
// the run's sort and join comparisons (the single tree's are printed
// above the table). Each row is emitted as a JSON line (prefix "JSON ")
// for scraping.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "datagen/rng.h"

namespace rsj {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

std::vector<Rect> ClusteredSide(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> centers;
  for (int c = 0; c < 6; ++c) {
    centers.push_back(Point{static_cast<Coord>(rng.Uniform(0.1, 0.9)),
                            static_cast<Coord>(rng.Uniform(0.1, 0.9))});
  }
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Point& c = centers[rng.UniformInt(centers.size())];
    const double x = c.x + rng.Gaussian(0.0, 0.05);
    const double y = c.y + rng.Gaussian(0.0, 0.05);
    const double w = rng.Uniform(0.0, 0.01);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + w)});
  }
  return rects;
}

// 80% of the objects inside the [0, 0.25]^2 corner, the rest uniform.
std::vector<Rect> SkewedSide(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double span = rng.Bernoulli(0.8) ? 0.25 : 1.0;
    const double x = rng.Uniform(0.0, span - 0.01);
    const double y = rng.Uniform(0.0, span - 0.01);
    const double w = rng.Uniform(0.0, 0.01);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + w)});
  }
  return rects;
}

struct Reference {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  double seconds = 0.0;
  uint64_t sort_comparisons = 0;
  uint64_t join_comparisons = 0;
};

// A sharded run may charge at most this multiple of the single-tree
// join's sort comparisons.
constexpr uint64_t kMaxSortRatio = 2;

std::vector<std::pair<uint32_t, uint32_t>> Sorted(const ResultChunkList& c) {
  auto pairs = c.CopyPairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

bool RunShape(const char* shape, const std::vector<Rect>& r,
              const std::vector<Rect>& s) {
  RTreeOptions topt;
  topt.page_size = kPageSize2K;
  JoinOptions jopt;  // SJ4

  const IndexedRelation ri(r, topt);
  const IndexedRelation si(s, topt);
  Reference ref;
  {
    const auto t0 = Clock::now();
    const JoinRunResult run = RunSpatialJoin(ri.tree(), si.tree(), jopt, true);
    ref.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    ref.pairs = Sorted(run.chunks);
    ref.sort_comparisons = run.stats.sort_comparisons.count();
    ref.join_comparisons = run.stats.join_comparisons.count();
  }
  std::printf("single tree: %s sort, %s join comparisons\n",
              Num(ref.sort_comparisons).c_str(),
              Num(ref.join_comparisons).c_str());

  PrintRow("K", {"pairs", "seconds", "speedup", "repl%", "balance",
                 "suppressed", "modeled S/M", "sort cmp", "join cmp"});
  bool ok = true;
  for (const unsigned shards : {2u, 4u, 8u}) {
    ShardedJoinOptions sopt;
    sopt.join = jopt;
    sopt.exec.num_threads = 2;
    sopt.exec.collect_pairs = true;
    sopt.disks_per_shard = 2;

    const auto t0 = Clock::now();
    const Declustering decl =
        Declustering::Build(r, s, DeclusterOptions{shards, 16});
    ShardBuildOptions build;
    build.tree = topt;
    const ShardedDataset rd(&decl, r, build, nullptr);
    const ShardedDataset sd(&decl, s, build, nullptr);
    const ShardedJoinResult run = RunShardedSpatialJoin(rd, sd, sopt);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // --- self-check: exactness + ledger ---
    if (Sorted(run.chunks) != ref.pairs) {
      std::fprintf(stderr, "FAIL %s K=%u: pair multiset diverges (%zu vs %zu)\n",
                   shape, shards, Sorted(run.chunks).size(), ref.pairs.size());
      ok = false;
    }
    if (run.raw_pairs != run.pair_count + run.suppressed_pairs) {
      std::fprintf(stderr, "FAIL %s K=%u: ledger %llu != %llu + %llu\n", shape,
                   shards, static_cast<unsigned long long>(run.raw_pairs),
                   static_cast<unsigned long long>(run.pair_count),
                   static_cast<unsigned long long>(run.suppressed_pairs));
      ok = false;
    }
    const uint64_t sort_comparisons = run.stats.sort_comparisons.count();
    const uint64_t join_comparisons = run.stats.join_comparisons.count();
    if (sort_comparisons > kMaxSortRatio * ref.sort_comparisons) {
      std::fprintf(stderr,
                   "FAIL %s K=%u: %llu sort comparisons > %llux the single "
                   "tree's %llu\n",
                   shape, shards,
                   static_cast<unsigned long long>(sort_comparisons),
                   static_cast<unsigned long long>(kMaxSortRatio),
                   static_cast<unsigned long long>(ref.sort_comparisons));
      ok = false;
    }

    const uint64_t replicated =
        rd.replicated_objects() + sd.replicated_objects();
    const double repl_pct =
        100.0 * static_cast<double>(replicated) /
        static_cast<double>(r.size() + s.size());
    const std::vector<double>& work = decl.shard_work();
    const double wmax = *std::max_element(work.begin(), work.end());
    const double wmin = *std::min_element(work.begin(), work.end());
    uint64_t modeled_sum = 0;
    for (const uint64_t m : run.shard_modeled_micros) modeled_sum += m;

    PrintRow(std::to_string(shards),
             {Num(run.pair_count), Dbl(seconds, 3),
              Dbl(ref.seconds / std::max(1e-9, seconds)),
              Dbl(repl_pct), Dbl(wmin > 0 ? wmax / wmin : 0.0),
              Num(run.suppressed_pairs),
              Dbl(static_cast<double>(modeled_sum) /
                  std::max<uint64_t>(1, run.modeled_elapsed_micros)),
              Num(sort_comparisons), Num(join_comparisons)});
    std::printf(
        "JSON {\"bench\":\"decluster\",\"shape\":\"%s\",\"shards\":%u,"
        "\"pairs\":%llu,\"seconds\":%.6f,\"speedup\":%.3f,"
        "\"replicated\":%llu,\"raw_pairs\":%llu,\"suppressed\":%llu,"
        "\"work_spread\":%.3f,\"modeled_sum_micros\":%llu,"
        "\"modeled_max_micros\":%llu,\"sort_comparisons\":%llu,"
        "\"join_comparisons\":%llu,\"single_sort_comparisons\":%llu,"
        "\"single_join_comparisons\":%llu,\"ok\":%d}\n",
        shape, shards, static_cast<unsigned long long>(run.pair_count),
        seconds, ref.seconds / std::max(1e-9, seconds),
        static_cast<unsigned long long>(replicated),
        static_cast<unsigned long long>(run.raw_pairs),
        static_cast<unsigned long long>(run.suppressed_pairs),
        wmin > 0 ? wmax / wmin : 0.0,
        static_cast<unsigned long long>(modeled_sum),
        static_cast<unsigned long long>(run.modeled_elapsed_micros),
        static_cast<unsigned long long>(sort_comparisons),
        static_cast<unsigned long long>(join_comparisons),
        static_cast<unsigned long long>(ref.sort_comparisons),
        static_cast<unsigned long long>(ref.join_comparisons), ok ? 1 : 0);
  }
  return ok;
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner("decluster", "scale-out declustering (src/shard/)", scale);

  const size_t n = std::max<size_t>(2000, static_cast<size_t>(60000 * scale));
  bool ok = true;

  std::printf("\nclustered x clustered (%zu x %zu)\n", n, n);
  ok &= RunShape("clustered", ClusteredSide(n, 101), ClusteredSide(n, 202));

  std::printf("\nskewed x skewed (%zu x %zu)\n", n, n);
  ok &= RunShape("skewed", SkewedSide(n, 303), SkewedSide(n, 404));

  if (!ok) {
    std::fprintf(stderr, "\nbench_decluster: SELF-CHECK FAILED\n");
    return 1;
  }
  std::printf(
      "\nself-check passed: sharded == single-tree on every row, sort "
      "comparisons within %llux the single tree's\n",
      static_cast<unsigned long long>(kMaxSortRatio));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
