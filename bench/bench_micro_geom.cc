// Micro-benchmark of the batch geometry kernels (geom/simd_kernels.h):
// scalar vs SIMD A/B at the node-typical block sizes 51/102/204/409 (the
// entry capacities of 1/2/4/8 KByte pages) for the kernelized loops —
// counted overlap filtering, the within-distance leaf test, and the plane
// sweep of two sorted nodes: whole (`sweep`; `sweep_ae` at the short scans
// of workloads A-E), and marked down to their intersection and then swept,
// as SJ3-5 process a node pair (`sweep_pair`).
//
// Reported per kernel × size × mode: ns per operation (one query-vs-block
// call or one node-pair sweep), total hits, charged comparisons, and the
// scalar/SIMD speedup. Each row is also emitted as a JSON line (prefix
// "JSON "). The run is
// self-checking: both modes must produce identical hit checksums AND
// identical comparison counts — any divergence exits non-zero, so the CI
// smoke run enforces the kernel parity contract end to end in Release
// codegen.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "datagen/rng.h"
#include "geom/simd_kernels.h"

namespace rsj {
namespace bench {
namespace {

// Node-entry capacities of the paper's 1/2/4/8 KByte pages.
constexpr size_t kBlockSizes[] = {51, 102, 204, 409};
constexpr size_t kQueryCount = 64;

struct Measured {
  double ns_per_op = 0.0;
  uint64_t ops = 0;
  uint64_t hits = 0;        // checksum: total hit count across all ops
  uint64_t hit_sum = 0;     // checksum: sum of emitted positions/indices
  uint64_t comparisons = 0;
};

std::vector<Rect> MakeRects(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.Uniform(0.0, 1.0 - extent);
    const double y = rng.Uniform(0.0, 1.0 - extent);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + rng.Uniform(0, extent)),
                         static_cast<Coord>(y + rng.Uniform(0, extent))});
  }
  return rects;
}

RectBlock BlockOf(const std::vector<Rect>& rects, bool sort_by_xl) {
  std::vector<IndexedRect> indexed(rects.size());
  for (uint32_t i = 0; i < rects.size(); ++i) indexed[i] = {rects[i], i};
  if (sort_by_xl) {
    std::sort(indexed.begin(), indexed.end(),
              [](const IndexedRect& a, const IndexedRect& b) {
                return a.rect.xl < b.rect.xl;
              });
  }
  RectBlock block;
  for (const IndexedRect& r : indexed) block.PushBack(r.rect, r.index);
  return block;
}

// Times `reps` calls of `op(counter, &m)`; each call runs the kernel once
// and adds its hits to m's checksums.
template <typename OpFn>
Measured TimeOps(uint64_t reps, OpFn&& op) {
  Measured m;
  ComparisonCounter counter;
  // Warm-up pass (dispatch resolution, cache warm, buffers grown),
  // uncounted.
  op(&counter, &m);
  counter = ComparisonCounter();
  m = Measured();
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t rep = 0; rep < reps; ++rep) op(&counter, &m);
  const auto end = std::chrono::steady_clock::now();
  m.ops = reps;
  m.ns_per_op =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
              .count()) /
      static_cast<double>(reps);
  m.comparisons = counter.count();
  return m;
}

void AddHits(const std::vector<uint32_t>& hits, Measured* m) {
  m->hits += hits.size();
  for (const uint32_t h : hits) m->hit_sum += h;
}

// One op = one query rectangle filtered against the whole block.
Measured RunOverlap(const RectBlock& block, const std::vector<Rect>& queries,
                    uint64_t reps) {
  uint64_t q = 0;
  std::vector<uint32_t> hits;
  return TimeOps(reps, [&](ComparisonCounter* counter, Measured* m) {
    CountedOverlapHits(block, queries[q++ % kQueryCount],
                       OverlapSubject::kBlock, counter, &hits);
    AddHits(hits, m);
  });
}

Measured RunWithin(const RectBlock& block, const std::vector<Rect>& queries,
                   double epsilon, uint64_t reps) {
  uint64_t q = 0;
  std::vector<uint32_t> hits;
  return TimeOps(reps, [&](ComparisonCounter* counter, Measured* m) {
    CountedWithinDistanceHits(block, queries[q++ % kQueryCount], epsilon,
                              counter, &hits);
    AddHits(hits, m);
  });
}

// One op = one full two-pointer sweep of an R block against its S block,
// into a reused pair buffer; op k sweeps pair k mod the pair count.
Measured RunSweep(const std::vector<RectBlock>& r,
                  const std::vector<RectBlock>& s, uint64_t reps) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  uint64_t q = 0;
  return TimeOps(reps, [&](ComparisonCounter* counter, Measured* m) {
    pairs.clear();
    const size_t k = q++ % r.size();
    SortedIntersectionTestBlocks(r[k], s[k], counter, &pairs);
    m->hits += pairs.size();
    for (const auto& [a, b] : pairs) m->hit_sum += a * 1024 + b;
  });
}

// One op = one node pair as SJ3-5 process it: both blocks marked down to
// the rectangles intersecting `window` (the intersection of the parents),
// then the marked blocks swept, into reused blocks and a reused pair
// buffer.
Measured RunSweepPair(const RectBlock& r, const RectBlock& s,
                      const Rect& window, uint64_t reps) {
  RectBlock marked_r;
  RectBlock marked_s;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  return TimeOps(reps, [&](ComparisonCounter* counter, Measured* m) {
    CountedOverlapMark(r, window, OverlapSubject::kBlock, counter, &marked_r);
    CountedOverlapMark(s, window, OverlapSubject::kBlock, counter, &marked_s);
    pairs.clear();
    SortedIntersectionTestBlocks(marked_r, marked_s, counter, &pairs);
    m->hits += pairs.size();
    for (const auto& [a, b] : pairs) m->hit_sum += a * 1024 + b;
  });
}

void EmitJson(const char* kernel, size_t n, GeomKernelMode mode,
              const Measured& m, double speedup) {
  std::printf(
      "JSON {\"bench\":\"micro_geom\",\"kernel\":\"%s\",\"n\":%zu,"
      "\"mode\":\"%s\",\"ns_per_op\":%.2f,\"ops\":%llu,\"hits\":%llu,"
      "\"comparisons\":%llu,\"speedup\":%.3f}\n",
      kernel, n, GeomKernelModeName(mode), m.ns_per_op,
      static_cast<unsigned long long>(m.ops),
      static_cast<unsigned long long>(m.hits),
      static_cast<unsigned long long>(m.comparisons), speedup);
}

// Runs `measure` in both dispatch modes, prints/emits both rows, and
// enforces the parity contract. Returns false on any divergence.
template <typename MeasureFn>
bool CompareModes(const char* kernel, size_t n, MeasureFn&& measure) {
  SetGeomKernelMode(GeomKernelMode::kScalar);
  const Measured scalar = measure();
  SetGeomKernelMode(GeomKernelMode::kSimd);
  const Measured simd = measure();

  const double speedup = scalar.ns_per_op /
                         (simd.ns_per_op > 0.0 ? simd.ns_per_op : 1.0);
  char label[48];
  std::snprintf(label, sizeof(label), "%s n=%zu", kernel, n);
  PrintRow(label,
           {Dbl(scalar.ns_per_op, 1), Dbl(simd.ns_per_op, 1),
            Num(scalar.hits), Num(scalar.comparisons), Dbl(speedup)});
  EmitJson(kernel, n, GeomKernelMode::kScalar, scalar, 1.0);
  EmitJson(kernel, n, GeomKernelMode::kSimd, simd, speedup);

  bool ok = true;
  if (scalar.hits != simd.hits || scalar.hit_sum != simd.hit_sum) {
    std::printf("FAIL: %s n=%zu hit divergence (scalar %llu/%llu vs "
                "simd %llu/%llu)\n",
                kernel, n, static_cast<unsigned long long>(scalar.hits),
                static_cast<unsigned long long>(scalar.hit_sum),
                static_cast<unsigned long long>(simd.hits),
                static_cast<unsigned long long>(simd.hit_sum));
    ok = false;
  }
  if (scalar.comparisons != simd.comparisons) {
    std::printf("FAIL: %s n=%zu comparison-count divergence "
                "(scalar %llu vs simd %llu)\n",
                kernel, n,
                static_cast<unsigned long long>(scalar.comparisons),
                static_cast<unsigned long long>(simd.comparisons));
    ok = false;
  }
  return ok;
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner(
      "Geometry kernel micro-bench (scalar vs SIMD batch kernels at "
      "node-typical block sizes)",
      "Section 4 CPU cost model; kernel parity contract of "
      "geom/simd_kernels.h", scale);
  std::printf("SIMD compiled in: %s\n\n",
              GeomSimdCompiledIn() ? "yes" : "no (kSimd degrades to scalar)");

  const GeomKernelMode saved = ActiveGeomKernelMode();
  // `reps` at scale 1.0 gives stable Release timings in well under a
  // second per cell; --scale trims the smoke run further.
  const auto reps = [scale](uint64_t base) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(
                                     static_cast<double>(base) * scale));
  };

  PrintRow("kernel", {"scalar ns", "simd ns", "hits", "comparisons",
                      "speedup"});
  bool ok = true;
  for (const size_t n : kBlockSizes) {
    const auto rects = MakeRects(n, 0.1, /*seed=*/1000 + n);
    const auto queries = MakeRects(kQueryCount, 0.1, /*seed=*/2000 + n);
    const RectBlock block = BlockOf(rects, /*sort_by_xl=*/false);
    ok &= CompareModes("overlap", n, [&] {
      return RunOverlap(block, queries, reps(200'000));
    });
  }
  for (const size_t n : kBlockSizes) {
    const auto rects = MakeRects(n, 0.1, /*seed=*/3000 + n);
    const auto queries = MakeRects(kQueryCount, 0.1, /*seed=*/4000 + n);
    const RectBlock block = BlockOf(rects, /*sort_by_xl=*/false);
    ok &= CompareModes("within", n, [&] {
      return RunWithin(block, queries, /*epsilon=*/0.05, reps(100'000));
    });
  }
  for (const size_t n : kBlockSizes) {
    const std::vector<RectBlock> r = {
        BlockOf(MakeRects(n, 0.1, 5000 + n), true)};
    const std::vector<RectBlock> s = {
        BlockOf(MakeRects(n, 0.1, 6000 + n), true)};
    ok &= CompareModes("sweep", n, [&] {
      return RunSweep(r, s, reps(20'000));
    });
  }
  // Workloads A-E's scan mix: an SJ4 pass over them scans 2.8 entries per
  // internal scan on average, and the narrow rectangles of two 204-entry
  // nodes here scan about 3. The ops cycle through 64 node pairs, as a
  // pass visits many: one pair swept over and over lets the branch
  // predictor learn its scans, which a pass never does.
  {
    constexpr size_t kN = 204;
    std::vector<RectBlock> r;
    std::vector<RectBlock> s;
    for (uint64_t k = 0; k < 64; ++k) {
      r.push_back(BlockOf(MakeRects(kN, 0.02, 9000 + 2 * k), true));
      s.push_back(BlockOf(MakeRects(kN, 0.02, 9001 + 2 * k), true));
    }
    ok &= CompareModes("sweep_ae", kN, [&] {
      return RunSweep(r, s, reps(100'000));
    });
  }
  // Two nodes whose MBRs overlap by half, each marked down to the
  // intersection of the two MBRs and then swept, as SJ3-5 process a node
  // pair.
  for (const size_t n : {51u, 102u, 204u}) {
    std::vector<Rect> r_rects = MakeRects(n, 0.05, 7000 + n);
    std::vector<Rect> s_rects = MakeRects(n, 0.05, 8000 + n);
    for (Rect& rect : s_rects) {
      rect.xl += 0.5f;
      rect.xu += 0.5f;
    }
    Rect mbr_r = Rect::Empty();
    Rect mbr_s = Rect::Empty();
    for (const Rect& rect : r_rects) mbr_r = mbr_r.Union(rect);
    for (const Rect& rect : s_rects) mbr_s = mbr_s.Union(rect);
    const Rect window = mbr_r.Intersection(mbr_s);
    const RectBlock r = BlockOf(r_rects, true);
    const RectBlock s = BlockOf(s_rects, true);
    ok &= CompareModes("sweep_pair", n, [&] {
      return RunSweepPair(r, s, window, reps(100'000));
    });
  }
  SetGeomKernelMode(saved);

  std::printf(
      "\nBoth modes emitted identical hit checksums and charged identical\n"
      "comparison counts%s — the paper's CPU metric is dispatch-invariant\n"
      "while the wall clock is not.\n",
      ok ? "" : " FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
