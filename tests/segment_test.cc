// Tests for exact segment/polyline geometry (refinement-step kernel).
// The seeded parity suites run PolylinesIntersect, which keeps no scratch
// state, from several threads and under TSan in CI.

#include "geom/segment.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/rng.h"

namespace rsj {
namespace {

TEST(OrientationTest, BasicCases) {
  EXPECT_EQ(Orientation(Point{0, 0}, Point{1, 0}, Point{0, 1}), 1);   // ccw
  EXPECT_EQ(Orientation(Point{0, 0}, Point{0, 1}, Point{1, 0}), -1);  // cw
  EXPECT_EQ(Orientation(Point{0, 0}, Point{1, 1}, Point{2, 2}), 0);   // col
}

TEST(PointOnSegmentTest, OnAndOff) {
  const Segment s{Point{0, 0}, Point{2, 2}};
  EXPECT_TRUE(PointOnSegment(Point{1, 1}, s));
  EXPECT_TRUE(PointOnSegment(Point{0, 0}, s));   // endpoint
  EXPECT_TRUE(PointOnSegment(Point{2, 2}, s));   // endpoint
  EXPECT_FALSE(PointOnSegment(Point{3, 3}, s));  // collinear but outside
  EXPECT_FALSE(PointOnSegment(Point{1, 0}, s));  // off the line
}

TEST(SegmentsIntersectTest, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{2, 2}},
                                Segment{Point{0, 2}, Point{2, 0}}));
}

TEST(SegmentsIntersectTest, DisjointSegments) {
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 0}},
                                 Segment{Point{0, 1}, Point{1, 1}}));
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 1}},
                                 Segment{Point{2, 2.0001f}, Point{3, 3}}));
}

TEST(SegmentsIntersectTest, SharedEndpoint) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 1}},
                                Segment{Point{1, 1}, Point{2, 0}}));
}

TEST(SegmentsIntersectTest, TIntersection) {
  // Endpoint of one segment lies in the interior of the other.
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{2, 0}},
                                Segment{Point{1, 0}, Point{1, 5}}));
}

TEST(SegmentsIntersectTest, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{2, 0}},
                                Segment{Point{1, 0}, Point{3, 0}}));
}

TEST(SegmentsIntersectTest, CollinearDisjoint) {
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 0}},
                                 Segment{Point{2, 0}, Point{3, 0}}));
}

TEST(SegmentsIntersectTest, CollinearTouchingAtPoint) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 0}},
                                Segment{Point{1, 0}, Point{2, 0}}));
}

TEST(SegmentsIntersectTest, ZeroLengthSegments) {
  const Segment point{Point{1, 1}, Point{1, 1}};
  EXPECT_TRUE(SegmentsIntersect(point, point));
  EXPECT_TRUE(
      SegmentsIntersect(point, Segment{Point{0, 0}, Point{2, 2}}));
  EXPECT_FALSE(
      SegmentsIntersect(point, Segment{Point{0, 0}, Point{0, 5}}));
}

TEST(SegmentsIntersectTest, MbrOverlapButNoIntersection) {
  // Bounding boxes overlap, segments do not — the cheap reject must not
  // produce a false positive.
  EXPECT_FALSE(
      SegmentsIntersect(Segment{Point{0, 0}, Point{3, 3}},
                        Segment{Point{2.5f, 0.0f}, Point{3.0f, 0.4f}}));
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{4, 4}},
                                 Segment{Point{3, 0}, Point{4, 1}}));
}

TEST(PolylinesIntersectTest, CrossingChains) {
  const std::vector<Point> a{Point{0, 0}, Point{1, 0}, Point{1, 1}};
  const std::vector<Point> b{Point{0.5f, -1.0f}, Point{0.5f, 3.0f}};
  EXPECT_TRUE(PolylinesIntersect(a, b));
}

TEST(PolylinesIntersectTest, DisjointChains) {
  const std::vector<Point> a{Point{0, 0}, Point{1, 0}};
  const std::vector<Point> b{Point{0, 1}, Point{1, 1}, Point{2, 2}};
  EXPECT_FALSE(PolylinesIntersect(a, b));
}

TEST(PolylinesIntersectTest, SingleVertexChains) {
  const std::vector<Point> point{Point{1, 1}};
  const std::vector<Point> through{Point{0, 0}, Point{2, 2}};
  EXPECT_TRUE(PolylinesIntersect(point, through));
  EXPECT_TRUE(PolylinesIntersect(through, point));
  const std::vector<Point> away{Point{5, 5}, Point{6, 6}};
  EXPECT_FALSE(PolylinesIntersect(point, away));
}

TEST(PolylinesIntersectTest, CollinearOverlappingChains) {
  // Chains sharing a collinear stretch intersect (infinitely many common
  // points), including the vertical orientation.
  const std::vector<Point> a{Point{0, 0}, Point{2, 2}};
  const std::vector<Point> b{Point{1, 1}, Point{3, 3}};
  EXPECT_TRUE(PolylinesIntersect(a, b));
  const std::vector<Point> va{Point{5, 0}, Point{5, 2}};
  const std::vector<Point> vb{Point{5, 1}, Point{5, 4}};
  EXPECT_TRUE(PolylinesIntersect(va, vb));
  // Collinear but disjoint stays disjoint.
  const std::vector<Point> c{Point{2.5f, 2.5f}, Point{4, 4}};
  EXPECT_FALSE(PolylinesIntersect(a, c));
}

TEST(PolylinesIntersectTest, ChainsSharingAnEndpoint) {
  const std::vector<Point> a{Point{0, 0}, Point{1, 1}};
  const std::vector<Point> b{Point{1, 1}, Point{2, 0}};
  EXPECT_TRUE(PolylinesIntersect(a, b));
  // An interior vertex of one chain on an endpoint of the other.
  const std::vector<Point> c{Point{1, 1}, Point{1, 2}, Point{2, 2}};
  EXPECT_TRUE(PolylinesIntersect(a, c));
}

TEST(PolylinesIntersectTest, ZeroLengthSegmentInChain) {
  // A repeated vertex forms a zero-length segment; the chain still
  // intersects exactly like its deduplicated form.
  const std::vector<Point> a{Point{0, 0}, Point{1, 1}, Point{1, 1},
                             Point{2, 0}};
  const std::vector<Point> through{Point{1, 0}, Point{1, 2}};
  EXPECT_TRUE(PolylinesIntersect(a, through));
  const std::vector<Point> away{Point{5, 5}, Point{6, 5}};
  EXPECT_FALSE(PolylinesIntersect(a, away));
  // Two single-vertex chains: intersect only when coincident.
  const std::vector<Point> p{Point{1, 1}};
  const std::vector<Point> q{Point{1, 1}};
  const std::vector<Point> r{Point{1, 1.0001f}};
  EXPECT_TRUE(PolylinesIntersect(p, q));
  EXPECT_FALSE(PolylinesIntersect(p, r));
}

TEST(PolylinesIntersectTest, EmptyChains) {
  const std::vector<Point> empty;
  const std::vector<Point> chain{Point{0, 0}, Point{1, 1}};
  EXPECT_FALSE(PolylinesIntersect(empty, chain));
  EXPECT_FALSE(PolylinesIntersect(chain, empty));
}

// Brute-force oracle: every segment of `a` against every segment of `b`,
// a single vertex standing for a zero-length segment.
bool AllSegmentPairsIntersect(const std::vector<Point>& a,
                              const std::vector<Point>& b) {
  const auto segments = [](const std::vector<Point>& chain) {
    std::vector<Segment> out;
    if (chain.size() == 1) out.push_back(Segment{chain[0], chain[0]});
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      out.push_back(Segment{chain[i], chain[i + 1]});
    }
    return out;
  };
  for (const Segment& s : segments(a)) {
    for (const Segment& t : segments(b)) {
      if (SegmentsIntersect(s, t)) return true;
    }
  }
  return false;
}

// A chain of `n` vertices on a coarse integer lattice: coordinates are
// exact, so collinear overlaps, shared endpoints, T-junctions and
// repeated vertices (zero-length segments) all occur often.
std::vector<Point> LatticeChain(Rng* rng, size_t n) {
  std::vector<Point> chain;
  for (size_t i = 0; i < n; ++i) {
    if (!chain.empty() && rng->Bernoulli(0.15)) {
      chain.push_back(chain.back());  // zero-length segment
      continue;
    }
    chain.push_back(Point{static_cast<Coord>(rng->UniformInt(9)),
                          static_cast<Coord>(rng->UniformInt(9))});
  }
  return chain;
}

// Runs `pairs` seeded chain pairs through PolylinesIntersect and the
// oracle. Chain sizes alternate between long (up to 40 vertices) and
// short (1-3), so scratch state left by a long chain would leak into the
// next short one if it were not reset. Returns the mismatch count.
int ParitySweep(uint64_t seed, int pairs, int* hits) {
  Rng rng(seed);
  int mismatches = 0;
  for (int i = 0; i < pairs; ++i) {
    const size_t long_size = 1 + rng.UniformInt(40);
    const size_t short_size = 1 + rng.UniformInt(3);
    const bool long_first = i % 2 == 0;
    const std::vector<Point> a =
        LatticeChain(&rng, long_first ? long_size : short_size);
    const std::vector<Point> b =
        LatticeChain(&rng, long_first ? short_size : long_size);
    const bool expected = AllSegmentPairsIntersect(a, b);
    *hits += expected ? 1 : 0;
    if (PolylinesIntersect(a, b) != expected) ++mismatches;
    if (PolylinesIntersect(b, a) != expected) ++mismatches;
  }
  return mismatches;
}

TEST(PolylinesIntersectTest, SeededParityWithAllSegmentPairsOracle) {
  int hits = 0;
  EXPECT_EQ(ParitySweep(/*seed=*/91, /*pairs=*/4000, &hits), 0);
  // The lattice yields both verdicts in bulk.
  EXPECT_GT(hits, 400);
  EXPECT_LT(hits, 3600);
}

TEST(PolylinesIntersectTest, SeededParityOnFourThreads) {
  std::vector<int> mismatches(4, 0);
  std::vector<int> hits(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      mismatches[t] = ParitySweep(/*seed=*/100 + t, /*pairs=*/1500, &hits[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_GT(hits[t], 0) << "thread " << t;
  }
}

TEST(PolylineMbrTest, CoversAllVertices) {
  const std::vector<Point> chain{Point{1, 5}, Point{-2, 3}, Point{4, -1}};
  const Rect mbr = PolylineMbr(chain);
  EXPECT_EQ(mbr, (Rect{-2, -1, 4, 5}));
  for (const Point& p : chain) EXPECT_TRUE(mbr.Contains(p));
}

TEST(PolylineMbrTest, SingleVertexIsPoint) {
  const std::vector<Point> chain{Point{2, 3}};
  EXPECT_EQ(PolylineMbr(chain), (Rect{2, 3, 2, 3}));
}

}  // namespace
}  // namespace rsj
