// Two-tier refinement A/B: exact-only segment tests vs the
// raster-interval intermediate filter (geom/raster_interval.h) in front
// of them, on the paper's workloads.
//
// For tests A (streets x rivers), B (streets x streets) and E (region
// data — 2-point chains, the degenerate shape for a raster tier), runs
// the streaming ID-spatial-join (join/refinement.h) twice with collected
// results:
//   * exact   — every candidate pair pays PolylinesIntersect,
//   * raster  — candidates are first classified on raster-interval
//     signatures; TRUE-HITs are emitted and REJECTs dropped without an
//     exact test, only INCONCLUSIVE pairs fall through.
// Both legs' result pair multisets must be IDENTICAL — the tier is an
// optimization, never an approximation. The verdict ledger must balance
// (true_hits + rejects + inconclusive == candidate_pairs and
// ri_exact_tests_avoided == true_hits + rejects), the inline form
// (RunIdSpatialJoin with the same knobs) must reproduce the counts, and
// at scale >= 0.05 the tier must avoid at least 30% of the exact tests
// on A and B. Any violation exits non-zero, so CI smoke runs enforce the
// acceptance criteria.
//
// Each leg is emitted as a JSON line (prefix "JSON ") with the shared
// refinement fragment (candidates/results/selectivity/ri_* counters)
// plus the avoided fraction and wall seconds.
//
// The planner's raster decision (engine/planner.h) is checked against
// measured time: on one collected candidate set per test, each tier is
// timed min-of-3 — the raster tier as signature build plus two-tier
// classification (INCONCLUSIVE fall-through included), the exact tier
// as exact-only refinement. Besides A/B/E this runs on two synthetic
// inputs built to favor the tier on coarse grids: dense objects smaller
// than a cell (3 bits) and crossing horizontal x vertical segments (6
// bits). The bench prints the planned tier, both priced costs and the
// measured nanoseconds per priced unit of each tier (the two agree when
// the planner's per-unit constants and the estimate hold; this is the
// printout the constants are calibrated from), and in optimized builds
// exits non-zero when the planned tier is more than 2x slower than the
// other.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "datagen/rng.h"

namespace rsj {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

// The avoided-fraction acceptance floor (A and B, scale >= 0.05).
constexpr double kAvoidedFloor = 0.30;
// The planned tier may be at most this much slower than the other one.
constexpr double kPlannedSlowdownCeiling = 2.0;
constexpr int kTimingReps = 3;
// The ceiling is enforced in optimized builds only: unoptimized timings
// do not show the ratios the constants were calibrated on.
#ifdef NDEBUG
constexpr bool kTimingGate = true;
#else
constexpr bool kTimingGate = false;
#endif

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Min-of-kTimingReps wall time of both tiers on one candidate set.
struct TierTimes {
  double build_ms = std::numeric_limits<double>::infinity();
  double classify_ms = std::numeric_limits<double>::infinity();
  double exact_ms = std::numeric_limits<double>::infinity();
  bool counts_agree = true;
  double proven_fraction = 0.0;  // candidates decided without exact test

  double raster_ms() const { return build_ms + classify_ms; }
};

TierTimes TimeTiers(const RTree& tr, const Dataset& r, const RTree& ts,
                    const Dataset& s, unsigned grid_bits) {
  JoinRunResult filtered =
      RunSpatialJoin(tr, ts, JoinOptions{}, /*collect_pairs=*/true);
  SpilledResult candidates;
  candidates.pair_count = filtered.pair_count;
  candidates.resident = std::move(filtered.chunks);
  TierTimes times;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    Statistics stats;
    RasterRefineFilter raster(r, s, grid_bits);
    Clock::time_point t0 = Clock::now();
    raster.BuildAll(&stats);
    times.build_ms = std::min(times.build_ms, MillisSince(t0));
    CountingSink two_tier, exact;
    t0 = Clock::now();
    RefineCandidateChunks(candidates, r, s, &two_tier, &stats, &raster);
    times.classify_ms = std::min(times.classify_ms, MillisSince(t0));
    t0 = Clock::now();
    RefineCandidateChunks(candidates, r, s, &exact, &stats);
    times.exact_ms = std::min(times.exact_ms, MillisSince(t0));
    times.counts_agree &= two_tier.count() == exact.count();
    times.proven_fraction =
        candidates.pair_count == 0
            ? 0.0
            : static_cast<double>(stats.ri_exact_tests_avoided) /
                  static_cast<double>(candidates.pair_count);
  }
  return times;
}

// `n` straight 2-vertex chains, each spanning [dx/2, dx] x [dy/2, dy]
// with a random vertical direction, placed uniformly in the unit square.
Dataset SegmentDataset(size_t n, uint64_t seed, double dx, double dy) {
  Rng rng(seed);
  Dataset d;
  d.name = "segments";
  for (uint32_t id = 0; id < n; ++id) {
    const double x = rng.Uniform(0.0, 1.0 - dx);
    const double y = rng.Uniform(dy, 1.0 - dy);
    const double sign = rng.Uniform() < 0.5 ? -1.0 : 1.0;
    const Point a{static_cast<Coord>(x), static_cast<Coord>(y)};
    const Point b{static_cast<Coord>(x + dx * rng.Uniform(0.5, 1.0)),
                  static_cast<Coord>(y + sign * dy * rng.Uniform(0.5, 1.0))};
    d.objects.push_back(SpatialObject{id, {a, b}, Rect::BoundingBox(a, b)});
  }
  return d;
}

// Plans one exact-geometry join, times both tiers on its candidates and
// checks the planned tier against the other. Returns false on a failed
// check.
bool CheckPlannedTier(const char* label, const RTree& tr, const Dataset& r,
                      const RTree& ts, const Dataset& s,
                      const PlannerOptions& options) {
  bool ok = true;
  const PlanChoice plan =
      PlanPairJoin(tr, ts, options, /*exact_geometry=*/true);
  const TierTimes times = TimeTiers(tr, r, ts, s, plan.raster_grid_bits);
  const char* planned = plan.refine_raster ? "raster" : "exact";
  const double planned_ms =
      plan.refine_raster ? times.raster_ms() : times.exact_ms;
  const double other_ms =
      plan.refine_raster ? times.exact_ms : times.raster_ms();
  const double ratio = planned_ms / std::max(1e-9, other_ms);
  const auto ns_per_unit = [](double ms, double cost) {
    return cost > 0.0 ? ms * 1e6 / cost : 0.0;
  };
  std::printf(
      "test %s: %u bits, planned %s (raster_cost %.0f, exact_cost %.0f) | "
      "raster tier %.3f ms build + %.3f ms classify (%.1f%% proven) | "
      "exact tier %.3f ms | planned tier %.2fx the other\n",
      label, plan.raster_grid_bits, planned, plan.raster_cost,
      plan.exact_cost, times.build_ms, times.classify_ms,
      times.proven_fraction * 100.0, times.exact_ms, ratio);
  std::printf(
      "JSON {\"bench\":\"refinement\",\"test\":\"%s\",\"tier\":\"plan\","
      "\"grid_bits\":%u,\"planned\":\"%s\",\"raster_cost\":%.1f,"
      "\"exact_cost\":%.1f,\"build_ms\":%.4f,\"classify_ms\":%.4f,"
      "\"proven_fraction\":%.4f,\"exact_ms\":%.4f,"
      "\"planned_over_other\":%.3f,\"raster_ns_per_unit\":%.2f,"
      "\"exact_ns_per_unit\":%.2f}\n",
      label, plan.raster_grid_bits, planned, plan.raster_cost,
      plan.exact_cost, times.build_ms, times.classify_ms,
      times.proven_fraction, times.exact_ms, ratio,
      ns_per_unit(times.raster_ms(), plan.raster_cost),
      ns_per_unit(times.exact_ms, plan.exact_cost));
  if (!times.counts_agree) {
    std::printf("FAIL %s: timed tiers refine to different counts\n", label);
    ok = false;
  }
  if (kTimingGate && ratio > kPlannedSlowdownCeiling) {
    std::printf("FAIL %s: planned %s tier is %.1fx slower than the other "
                "(ceiling %.0fx)\n",
                label, planned, ratio, kPlannedSlowdownCeiling);
    ok = false;
  }
  return ok;
}

struct Leg {
  StreamingIdJoinResult streaming;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // sorted multiset
  double seconds = 0.0;
};

Leg RunLeg(const RTree& tr, const Dataset& r, const RTree& ts,
           const Dataset& s, const JoinOptions& jopt) {
  StreamingRefineOptions ropts;
  ropts.num_threads = 4;
  ropts.collect_result_pairs = true;
  Leg leg;
  const auto t0 = Clock::now();
  leg.streaming = RunIdSpatialJoinStreaming(tr, r, ts, s, jopt, ropts);
  leg.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  leg.pairs = leg.streaming.refined.CopyPairs(nullptr);
  std::sort(leg.pairs.begin(), leg.pairs.end());
  return leg;
}

int Main(int argc, char** argv) {
  const double scale = Flags(argc, argv).Scale();
  PrintBanner("bench_refinement — exact-only vs raster-interval two-tier",
              "§2.1 filter/refinement", scale);
  bool ok = true;

  for (const TestCase test : {TestCase::kA, TestCase::kB, TestCase::kE}) {
    const Workload w = MakeWorkload(test, scale);
    RTreeOptions topt;
    topt.page_size = kPageSize4K;
    PagedFile fr(topt.page_size);
    PagedFile fs(topt.page_size);
    const RTree tr = BuildRTree(&fr, w.r.Mbrs(), topt);
    const RTree ts = BuildRTree(&fs, w.s.Mbrs(), topt);

    JoinOptions jopt;
    const Leg exact = RunLeg(tr, w.r, ts, w.s, jopt);
    jopt.refine_raster = true;
    const Leg raster = RunLeg(tr, w.r, ts, w.s, jopt);

    const Statistics& rs = raster.streaming.stats;
    const uint64_t candidates = raster.streaming.candidate_pairs;
    const double avoided_fraction =
        candidates == 0 ? 0.0
                        : static_cast<double>(rs.ri_exact_tests_avoided) /
                              static_cast<double>(candidates);

    std::printf(
        "test %s: %llu candidates -> %llu pairs | raster: %llu true-hit, "
        "%llu reject, %llu inconclusive (%.1f%% avoided) | %.3fs exact, "
        "%.3fs two-tier\n",
        w.label.c_str(), static_cast<unsigned long long>(candidates),
        static_cast<unsigned long long>(raster.streaming.result_pairs),
        static_cast<unsigned long long>(rs.ri_true_hits),
        static_cast<unsigned long long>(rs.ri_rejects),
        static_cast<unsigned long long>(rs.ri_inconclusive),
        avoided_fraction * 100.0, exact.seconds, raster.seconds);
    std::printf(
        "JSON {\"bench\":\"refinement\",\"test\":\"%s\",\"tier\":\"exact\","
        "%s,\"wall_seconds\":%.4f,%s}\n",
        w.label.c_str(),
        RefinementJson(exact.streaming.candidate_pairs,
                       exact.streaming.result_pairs, exact.streaming.stats)
            .c_str(),
        exact.seconds, IoCountersJson(exact.streaming.stats).c_str());
    std::printf(
        "JSON {\"bench\":\"refinement\",\"test\":\"%s\",\"tier\":\"raster\","
        "%s,\"avoided_fraction\":%.4f,\"wall_seconds\":%.4f,%s}\n",
        w.label.c_str(),
        RefinementJson(candidates, raster.streaming.result_pairs, rs).c_str(),
        avoided_fraction, raster.seconds, IoCountersJson(rs).c_str());

    // The tier is transparent: identical candidates and an identical
    // result pair multiset.
    if (exact.streaming.candidate_pairs != candidates) {
      std::printf("FAIL %s: candidate counts diverge\n", w.label.c_str());
      ok = false;
    }
    if (exact.pairs != raster.pairs) {
      std::printf("FAIL %s: result pair multisets diverge "
                  "(%zu exact vs %zu raster)\n",
                  w.label.c_str(), exact.pairs.size(), raster.pairs.size());
      ok = false;
    }
    // The verdict ledger balances: every candidate got exactly one
    // verdict, and 'avoided' counts exactly the proven ones.
    if (rs.ri_true_hits + rs.ri_rejects + rs.ri_inconclusive != candidates ||
        rs.ri_exact_tests_avoided != rs.ri_true_hits + rs.ri_rejects) {
      std::printf("FAIL %s: verdict ledger does not balance\n",
                  w.label.c_str());
      ok = false;
    }
    // The inline form with the same knobs reproduces the counts.
    const IdJoinResult inline_result =
        RunIdSpatialJoin(tr, w.r, ts, w.s, jopt);
    if (inline_result.candidate_pairs != candidates ||
        inline_result.result_pairs != raster.streaming.result_pairs) {
      std::printf("FAIL %s: inline two-tier diverges from streaming\n",
                  w.label.c_str());
      ok = false;
    }
    // The perf claim, on the workloads the tier targets.
    if (scale >= 0.05 && (test == TestCase::kA || test == TestCase::kB) &&
        avoided_fraction < kAvoidedFloor) {
      std::printf("FAIL %s: avoided %.1f%% < %.0f%% floor\n", w.label.c_str(),
                  avoided_fraction * 100.0, kAvoidedFloor * 100.0);
      ok = false;
    }

    ok &= CheckPlannedTier(w.label.c_str(), tr, w.r, ts, w.s,
                           PlannerOptions{});
  }

  // Two inputs built to favor the tier, each on a coarse grid: dense
  // objects smaller than a cell meeting many candidates each (every pair
  // INCONCLUSIVE), and long horizontal x vertical segments where most
  // candidates cross inside a fully traversed cell (mostly TRUE-HIT).
  {
    const Dataset dense = SegmentDataset(4000, 33, 0.04, 0.04);
    const Dataset across = SegmentDataset(4000, 34, 0.25, 0.0);
    const Dataset down = SegmentDataset(4000, 35, 0.0, 0.25);
    RTreeOptions topt;
    topt.page_size = kPageSize4K;
    PagedFile fd(topt.page_size);
    PagedFile fa(topt.page_size);
    PagedFile fb(topt.page_size);
    const RTree td = BuildRTree(&fd, dense.Mbrs(), topt);
    const RTree ta = BuildRTree(&fa, across.Mbrs(), topt);
    const RTree tb = BuildRTree(&fb, down.Mbrs(), topt);
    PlannerOptions popt;
    popt.raster_grid_bits = 3;
    ok &= CheckPlannedTier("sub-cell", td, dense, td, dense, popt);
    popt.raster_grid_bits = 6;
    ok &= CheckPlannedTier("crossing", ta, across, tb, down, popt);
  }

  std::printf(
      "\n%s: the raster tier returned identical result multisets on every\n"
      "workload; TRUE-HIT and REJECT verdicts skipped the exact segment\n"
      "tests for the avoided fraction above, and the planner picked a tier\n"
      "within %.0fx of the faster one%s.\n",
      ok ? "OK" : "FAILED", kPlannedSlowdownCeiling,
      kTimingGate ? "" : " (not enforced: unoptimized build)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::bench::Main(argc, argv); }
