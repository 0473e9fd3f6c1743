// Randomized differential test harness: every join executor variant vs.
// a brute-force O(n^2) oracle over hundreds of seeded workloads.
//
// Each seed deterministically derives a workload family (uniform,
// clustered, lattice-snapped with touching edges and duplicates, or
// collinear/degenerate) and a predicate (intersects, or within-distance
// with a random epsilon on a third of the seeds), then runs
//
//   SJ1 SJ2 SweepI SJ3 SJ4 SJ5   (sequential engine)
//   parallel                      (task-pool executor, 3 threads)
//   sharded                       (declustered K-shard join, K in 2/4/8)
//   streaming-refined             (on a seed subset, exact polylines)
//   chain joins                   (3- and 4-relation chains on the chain
//                                  executor at 1 and 3 threads, collected
//                                  or spilled)
//
// and requires the SORTED PAIR (or tuple) MULTISET of every variant to
// equal the oracle's. Any failure prints the reproducing seed via
// SCOPED_TRACE.
// Workloads stay small (40..120 objects) so the full sweep is fast under
// TSan, where this suite doubles as a race hunt over the parallel and
// sharded paths.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/rng.h"
#include "exec/multiway_executor.h"
#include "exec/parallel_executor.h"
#include "geom/comparison_counter.h"
#include "geom/segment.h"
#include "join/join_runner.h"
#include "join/predicate.h"
#include "join/refinement.h"
#include "shard/sharded_join.h"
#include "test_util.h"

namespace rsj {
namespace {

constexpr uint64_t kSeeds = 200;

struct Workload {
  std::vector<Rect> r;
  std::vector<Rect> s;
  JoinOptions join;
  unsigned shards = 4;
};

// Snaps uniform rectangles onto a coarse lattice: many exactly-touching
// edges, zero-area objects, and (via the modulo) repeated coordinates.
std::vector<Rect> LatticeRects(size_t count, Rng* rng) {
  std::vector<Rect> rects;
  rects.reserve(count);
  const double step = 1.0 / 8;
  for (size_t i = 0; i < count; ++i) {
    const unsigned gx = static_cast<unsigned>(rng->UniformInt(8));
    const unsigned gy = static_cast<unsigned>(rng->UniformInt(8));
    const unsigned w = static_cast<unsigned>(rng->UniformInt(3));  // 0 = point
    const unsigned h = static_cast<unsigned>(rng->UniformInt(3));
    rects.push_back(Rect{static_cast<Coord>(gx * step),
                         static_cast<Coord>(gy * step),
                         static_cast<Coord>((gx + w) * step),
                         static_cast<Coord>((gy + h) * step)});
  }
  return rects;
}

// Zero-area rectangles on one vertical line: a degenerate universe axis.
std::vector<Rect> CollinearRects(size_t count, Rng* rng) {
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Coord y = static_cast<Coord>(rng->Uniform(0.0, 1.0));
    const Coord h = static_cast<Coord>(rng->Uniform(0.0, 0.1));
    rects.push_back(Rect{0.5f, y, 0.5f, y + h});
  }
  return rects;
}

// One relation of the workload family `seed` selects; `gen_seed` seeds the
// uniform and clustered generators, `rng` the lattice and collinear ones.
std::vector<Rect> FamilyRects(uint64_t seed, size_t count, uint64_t gen_seed,
                              Rng* rng) {
  switch (seed % 4) {
    case 0:
      return testutil::RandomRects(count, gen_seed, 0.15);
    case 1:
      return testutil::ClusteredRects(count, gen_seed, 3, 0.08);
    case 2:
      return LatticeRects(count, rng);
    default:
      return CollinearRects(count, rng);
  }
}

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  Workload w;
  const size_t nr = 40 + rng.UniformInt(81);
  const size_t ns = 40 + rng.UniformInt(81);
  w.r = FamilyRects(seed, nr, seed * 2 + 1, &rng);
  w.s = FamilyRects(seed, ns, seed * 2 + 2, &rng);
  // Duplicate a handful of objects on each side (replicated geometry must
  // yield one output pair per OBJECT, not per distinct rectangle).
  for (int d = 0; d < 4; ++d) {
    w.r.push_back(w.r[rng.UniformInt(w.r.size())]);
    w.s.push_back(w.s[rng.UniformInt(w.s.size())]);
  }
  if (seed % 3 == 1) {
    w.join.predicate = JoinPredicate::kWithinDistance;
    w.join.epsilon = rng.Uniform(0.0, 0.15);
  }
  w.shards = 2u << rng.UniformInt(3);  // 2, 4 or 8
  return w;
}

// The oracle: every pair through the same exact predicate evaluation the
// engines apply at their leaves.
std::vector<std::pair<uint32_t, uint32_t>> Oracle(const Workload& w) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  ComparisonCounter counter;
  for (uint32_t i = 0; i < w.r.size(); ++i) {
    for (uint32_t j = 0; j < w.s.size(); ++j) {
      if (EvaluatePredicateCounted(w.join.predicate, w.join.epsilon, w.r[i],
                                   w.s[j], &counter)) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return testutil::Canonical(std::move(pairs));
}

TEST(PropertyJoin, AllExecutorsMatchBruteForceOracle) {
  uint64_t total_pairs = 0;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const Workload w = MakeWorkload(seed);
    const auto expected = Oracle(w);
    total_pairs += expected.size();

    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    const IndexedRelation ri(w.r, topt);
    const IndexedRelation si(w.s, topt);

    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
          JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
          JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5}) {
      JoinOptions opt = w.join;
      opt.algorithm = algorithm;
      const JoinRunResult got =
          RunSpatialJoin(ri.tree(), si.tree(), opt, true);
      EXPECT_EQ(testutil::Canonical(got.chunks), expected)
          << JoinAlgorithmName(algorithm);
    }

    ParallelExecutorOptions exec;
    exec.num_threads = 3;
    exec.collect_pairs = true;
    const ParallelJoinResult par =
        RunParallelSpatialJoin(ri.tree(), si.tree(), w.join, exec);
    EXPECT_EQ(testutil::Canonical(par.chunks), expected) << "parallel";

    ShardedJoinOptions sopt;
    sopt.join = w.join;
    sopt.exec.num_threads = 2;
    sopt.exec.collect_pairs = true;
    const JoinRunResult sharded = RunShardedSpatialJoin(
        w.r, w.s, DeclusterOptions{w.shards, 8}, topt, sopt);
    EXPECT_EQ(testutil::Canonical(sharded.chunks), expected)
        << "sharded K=" << w.shards;
    EXPECT_EQ(sharded.stats.sh_raw_pairs,
              sharded.pair_count + sharded.stats.sh_dedup_suppressed)
        << "sharded ledger K=" << w.shards;
  }
  // The sweep exercised real workloads, not 200 empty intersections.
  EXPECT_GT(total_pairs, 10000u);
}

// ---------------------------------------------------------------------------
// Streaming-refined variant (exact polylines), on a seed subset.

Dataset ChainDataset(uint64_t seed, size_t count) {
  Rng rng(seed);
  Dataset d;
  d.name = "prop";
  for (uint32_t i = 0; i < count; ++i) {
    SpatialObject o;
    o.id = i;
    const double x = rng.Uniform(0.0, 0.9);
    const double y = rng.Uniform(0.0, 0.9);
    const size_t vertices = 2 + rng.UniformInt(3);
    for (size_t v = 0; v < vertices; ++v) {
      o.chain.push_back(
          Point{static_cast<Coord>(x + rng.Uniform(0.0, 0.12)),
                static_cast<Coord>(y + rng.Uniform(0.0, 0.12))});
    }
    o.mbr = PolylineMbr(o.chain);
    d.objects.push_back(std::move(o));
  }
  return d;
}

TEST(PropertyJoin, StreamingRefinementMatchesInlineAndOracle) {
  for (uint64_t seed = 0; seed < kSeeds; seed += 20) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const Dataset r = ChainDataset(seed * 2 + 1, 60 + seed % 40);
    const Dataset s = ChainDataset(seed * 2 + 2, 60 + seed % 40);

    // Brute-force oracle on the exact geometry.
    uint64_t candidates = 0;
    uint64_t results = 0;
    for (const SpatialObject& a : r.objects) {
      for (const SpatialObject& b : s.objects) {
        if (!a.mbr.Intersects(b.mbr)) continue;
        ++candidates;
        if (PolylinesIntersect(a.chain, b.chain)) ++results;
      }
    }

    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    const IndexedRelation ri(r.Mbrs(), topt);
    const IndexedRelation si(s.Mbrs(), topt);
    JoinOptions jopt;

    const IdJoinResult inline_run =
        RunIdSpatialJoin(ri.tree(), r, si.tree(), s, jopt);
    EXPECT_EQ(inline_run.candidate_pairs, candidates);
    EXPECT_EQ(inline_run.result_pairs, results);

    StreamingRefineOptions ropt;
    ropt.chunk_capacity = 64;
    ropt.filter_budget_chunks = 2;  // force spilling on most seeds
    ropt.num_threads = (seed % 40 == 0) ? 2 : 1;
    const StreamingIdJoinResult streaming = RunIdSpatialJoinStreaming(
        ri.tree(), r, si.tree(), s, jopt, ropt);
    EXPECT_EQ(streaming.candidate_pairs, candidates);
    EXPECT_EQ(streaming.result_pairs, results);
  }
}

// ---------------------------------------------------------------------------
// Chain executors: 3- and 4-relation chains vs a nested-loop chain oracle.

constexpr uint64_t kChainSeeds = 48;

using testutil::ChainOracle;
using testutil::Sorted;
using testutil::Tuples;

TEST(PropertyJoin, ChainExecutorsMatchBruteForceOracle) {
  uint64_t total_tuples = 0;
  for (uint64_t seed = 0; seed < kChainSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed * 104729 + 7);
    const size_t chain_len = 3 + rng.UniformInt(2);
    JoinOptions join;
    if (rng.Bernoulli(0.5)) {
      join.predicate = JoinPredicate::kWithinDistance;
      join.epsilon = rng.Uniform(0.0, 0.05);
    }
    std::vector<std::vector<Rect>> rels;
    for (size_t k = 0; k < chain_len; ++k) {
      rels.push_back(
          FamilyRects(seed, 20 + rng.UniformInt(31), seed * 8 + k, &rng));
    }
    const Tuples expected = ChainOracle(rels, join);
    total_tuples += expected.size();

    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    std::vector<IndexedRelation> indexed;
    indexed.reserve(chain_len);
    for (const std::vector<Rect>& rects : rels) indexed.emplace_back(rects, topt);
    std::vector<JoinRelation> chain;
    for (size_t k = 0; k < chain_len; ++k) {
      chain.push_back({&indexed[k].tree(), &rels[k]});
    }

    const MultiwayJoinResult one_thread =
        RunChainSpatialJoin(chain, join, true);
    EXPECT_EQ(Sorted(one_thread.tuples), expected) << "RunChainSpatialJoin";

    for (const bool spill : {false, true}) {
      ParallelExecutorOptions exec;
      exec.num_threads = 3;
      exec.chunk_capacity = 8;
      exec.spill_results = spill;
      exec.spill_budget_chunks = 1 + seed % 2;
      const ParallelChainJoinResult got =
          RunParallelChainSpatialJoin(chain, join, exec, true);
      Statistics read_stats;
      const Tuples tuples =
          spill ? got.spilled_tuples.CopyTuples(&read_stats) : got.tuples;
      EXPECT_EQ(got.tuple_count, expected.size()) << "spill=" << spill;
      EXPECT_EQ(Sorted(tuples), expected) << "spill=" << spill;
    }
  }
  // The sweep exercised real chains, not empty frontiers.
  EXPECT_GT(total_tuples, 5000u);
}

}  // namespace
}  // namespace rsj
