// Tests of the spatial declustering layer (src/shard/): tile-grid
// ownership vs. replication semantics on exact boundaries, balanced
// z-order grouping, boundary-object replication (including the
// within-distance expansion), reference-point deduplication, the
// sh_* / governor accounting, and result identity against the
// single-tree executor across shard counts.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "engine/memory_governor.h"
#include "join/join_runner.h"
#include "shard/decluster.h"
#include "shard/sharded_join.h"
#include "test_util.h"

namespace rsj {
namespace {

// ---------------------------------------------------------------------------
// TileGrid semantics

TEST(TileGrid, OwnershipIsHalfOpenAndTotal) {
  const TileGrid grid(Rect{0, 0, 8, 8}, 4);  // tiles of extent 2
  // Interior boundary points belong to the UPPER tile (half-open cells).
  EXPECT_EQ(grid.TileOwnerOf(Point{2, 0}), 1u);
  EXPECT_EQ(grid.TileOwnerOf(Point{1.999f, 0}), 0u);
  EXPECT_EQ(grid.TileOwnerOf(Point{0, 2}), 4u);
  EXPECT_EQ(grid.TileOwnerOf(Point{2, 2}), 5u);
  // The universe edges clamp into the last row/column (closed there).
  EXPECT_EQ(grid.TileOwnerOf(Point{8, 8}), 15u);
  EXPECT_EQ(grid.TileOwnerOf(Point{0, 0}), 0u);
  // Out-of-universe points clamp to boundary tiles, never out of range.
  EXPECT_EQ(grid.TileOwnerOf(Point{-5, 100}), 12u);
}

TEST(TileGrid, ReplicationRangesAreClosed) {
  const TileGrid grid(Rect{0, 0, 8, 8}, 4);
  // A rectangle ENDING exactly on a tile boundary reaches the upper
  // neighbor too: closed tile rects share the boundary edge.
  const TileGrid::TileRange touch = grid.TileRangeOf(Rect{0, 0, 2, 2});
  EXPECT_EQ(touch.x0, 0u);
  EXPECT_EQ(touch.x1, 1u);
  EXPECT_EQ(touch.y1, 1u);
  // A zero-area rectangle (point object) on a corner overlaps one cell
  // under the floor mapping — the one that owns the point.
  const TileGrid::TileRange corner = grid.TileRangeOf(Rect{2, 2, 2, 2});
  EXPECT_EQ(corner.x0, 1u);
  EXPECT_EQ(corner.x1, 1u);
  EXPECT_EQ(corner.y0, 1u);
  EXPECT_EQ(corner.y1, 1u);
}

TEST(TileGrid, OwnerTileAlwaysInsideContainingRectsRange) {
  // The dedup invariant: for any point p inside rect r,
  // TileOwnerOf(p) ∈ TileRangeOf(r). Fuzz it over awkward geometry.
  Rng rng(99);
  const TileGrid grid(Rect{-3, -3, 11, 5}, 16);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(-3.0, 11.0);
    const double y = rng.Uniform(-3.0, 5.0);
    const double w = rng.Uniform(0.0, 4.0);
    const double h = rng.Uniform(0.0, 4.0);
    const Rect r{static_cast<Coord>(x), static_cast<Coord>(y),
                 static_cast<Coord>(std::min(11.0, x + w)),
                 static_cast<Coord>(std::min(5.0, y + h))};
    const Point p{
        static_cast<Coord>(rng.Uniform(r.xl, r.xu)),
        static_cast<Coord>(rng.Uniform(r.yl, r.yu))};
    const unsigned tile = grid.TileOwnerOf(p);
    const unsigned tx = tile % grid.tiles_per_side();
    const unsigned ty = tile / grid.tiles_per_side();
    const TileGrid::TileRange range = grid.TileRangeOf(r);
    EXPECT_GE(tx, range.x0);
    EXPECT_LE(tx, range.x1);
    EXPECT_GE(ty, range.y0);
    EXPECT_LE(ty, range.y1);
  }
}

TEST(TileGrid, DegenerateUniverseCollapsesToOneColumn) {
  // All objects on one vertical line: the x axis degenerates; every
  // point still has exactly one owner tile.
  const TileGrid grid(Rect{3, 0, 3, 4}, 4);
  EXPECT_EQ(grid.TileOwnerOf(Point{3, 0}), 0u);
  EXPECT_EQ(grid.TileOwnerOf(Point{3, 3.5f}), 12u);
}

// ---------------------------------------------------------------------------
// Declustering

TEST(Declustering, EveryTileAssignedAndRoughlyBalanced) {
  const auto r = testutil::ClusteredRects(4000, 41, 3, 0.02);
  const auto s = testutil::ClusteredRects(4000, 42, 5, 0.02);
  DeclusterOptions opt;
  opt.num_shards = 4;
  opt.tiles_per_side = 16;
  const Declustering decl = Declustering::Build(r, s, opt);
  ASSERT_EQ(decl.num_shards(), 4u);
  for (unsigned t = 0; t < decl.grid().tile_count(); ++t) {
    EXPECT_LT(decl.ShardOfTile(t), 4u);
  }
  // Work-balanced grouping on heavily skewed input: no shard exceeds
  // twice its equal share (a uniform tile split would be far worse).
  const std::vector<double>& work = decl.shard_work();
  const double total = work[0] + work[1] + work[2] + work[3];
  for (const double w : work) EXPECT_LE(w, 2.0 * total / 4.0);
}

TEST(Declustering, SingleShardDegeneratesGracefully) {
  const auto r = testutil::RandomRects(50, 43);
  const Declustering decl =
      Declustering::Build(r, r, DeclusterOptions{1, 4});
  for (unsigned t = 0; t < decl.grid().tile_count(); ++t) {
    EXPECT_EQ(decl.ShardOfTile(t), 0u);
  }
}

// ---------------------------------------------------------------------------
// ShardedDataset replication

TEST(ShardedDataset, SpanningObjectReplicatesIntoEveryOverlappedShard) {
  // One giant object covering the whole universe plus scattered points:
  // the giant lands in all K shards, the points in exactly one each.
  std::vector<Rect> rects = testutil::RandomRects(200, 44, 0.0);
  rects.push_back(Rect{0, 0, 1, 1});
  const Declustering decl =
      Declustering::Build(rects, rects, DeclusterOptions{5, 8});
  Statistics stats;
  ShardBuildOptions build;
  build.tree.page_size = kPageSize1K;
  const ShardedDataset ds(&decl, rects, build, &stats);
  uint64_t placements = 0;
  for (unsigned k = 0; k < ds.num_shards(); ++k) {
    placements += ds.shard_ids(k).size();
    // The giant is in every shard.
    EXPECT_TRUE(std::find(ds.shard_ids(k).begin(), ds.shard_ids(k).end(),
                          200u) != ds.shard_ids(k).end());
  }
  // placements == objects + replicas, and only the giant replicated.
  EXPECT_EQ(placements, rects.size() + ds.replicated_objects());
  EXPECT_EQ(ds.replicated_objects(), 4u);
  EXPECT_EQ(stats.sh_objects_replicated, 4u);
  EXPECT_EQ(stats.sh_shards_built, 5u);
}

TEST(ShardedDataset, ExpansionWidensReplication) {
  // A point object near (but not on) a tile boundary: unexpanded it
  // lives in one shard; expanded by ε it must reach the neighbor.
  const std::vector<Rect> anchor = {Rect{0, 0, 1, 1}};
  const std::vector<Rect> rects = {Rect{0.49f, 0.5f, 0.49f, 0.5f}};
  const Declustering decl =
      Declustering::Build(anchor, anchor, DeclusterOptions{2, 2});
  ShardBuildOptions plain;
  plain.tree.page_size = kPageSize1K;
  const ShardedDataset narrow(&decl, rects, plain, nullptr);
  EXPECT_EQ(narrow.replicated_objects(), 0u);
  ShardBuildOptions expanded = plain;
  expanded.expansion = 0.05;
  const ShardedDataset wide(&decl, rects, expanded, nullptr);
  EXPECT_GE(wide.replicated_objects(), 1u);
}

TEST(ShardedDataset, BuildLeasesFromTheGovernorAndReleases) {
  MemoryGovernor governor;
  const auto rects = testutil::RandomRects(500, 45);
  const Declustering decl =
      Declustering::Build(rects, rects, DeclusterOptions{4, 8});
  ShardBuildOptions build;
  build.tree.page_size = kPageSize1K;
  build.governor = &governor;
  const ShardedDataset ds(&decl, rects, build, nullptr);
  // Staging was leased while the trees loaded and fully released after.
  EXPECT_GT(governor.category_peak(MemoryCategory::kShardBuild), 0u);
  EXPECT_EQ(governor.category_live(MemoryCategory::kShardBuild), 0u);
}

// ---------------------------------------------------------------------------
// Sharded join: boundary semantics and the dedup ledger

// Builds both sides, runs the single-tree reference and the sharded join,
// and asserts identical multisets plus a balanced ledger.
void ExpectShardedMatchesSingle(const std::vector<Rect>& r,
                                const std::vector<Rect>& s,
                                const JoinOptions& join, unsigned shards,
                                unsigned tiles) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation ri(r, topt);
  const IndexedRelation si(s, topt);
  const JoinRunResult ref = RunSpatialJoin(ri.tree(), si.tree(), join, true);

  ShardedJoinOptions sopt;
  sopt.join = join;
  sopt.exec.num_threads = 2;
  sopt.exec.collect_pairs = true;
  const JoinRunResult sharded = RunShardedSpatialJoin(
      r, s, DeclusterOptions{shards, tiles}, topt, sopt);

  EXPECT_EQ(testutil::Canonical(sharded.chunks),
            testutil::Canonical(ref.chunks))
      << "shards=" << shards << " tiles=" << tiles;
  EXPECT_EQ(sharded.pair_count, ref.pair_count);
  // The dedup ledger balances: every raw shard-pair hit was either
  // forwarded or suppressed, nothing dropped, nothing double-counted.
  EXPECT_EQ(sharded.stats.sh_raw_pairs,
            sharded.pair_count + sharded.stats.sh_dedup_suppressed);
  // The engines emit every raw hit through output_pairs.
  EXPECT_EQ(sharded.stats.output_pairs, sharded.stats.sh_raw_pairs);
}

TEST(ShardedJoin, ObjectsExactlyOnTileEdges) {
  // Rectangles snapped to a lattice that coincides with the tile
  // boundaries of an 8x8 grid over [0,1]^2: edge-touching pairs,
  // zero-area objects ON boundaries, duplicates — the dedup rule's
  // worst case, since reference points land exactly on owned edges.
  std::vector<Rect> r;
  std::vector<Rect> s;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const Coord x = static_cast<Coord>(i) / 8;
      const Coord y = static_cast<Coord>(j) / 8;
      const Coord step = 1.0f / 8;
      r.push_back(Rect{x, y, x + step, y + step});   // tile-sized cells
      r.push_back(Rect{x, y, x, y});                 // corner points
      s.push_back(Rect{x, y, x + step, y});          // horizontal edges
      s.push_back(Rect{x, y, x, y + step});          // vertical edges
      s.push_back(Rect{x, y, x + step, y + step});   // duplicate cells
    }
  }
  JoinOptions join;
  ExpectShardedMatchesSingle(r, s, join, 4, 8);
  // A grid NOT aligned with the geometry exercises the interior floors.
  ExpectShardedMatchesSingle(r, s, join, 4, 6);
}

TEST(ShardedJoin, IdenticalAcrossShardCountsOnSkewedData) {
  const auto r = testutil::ClusteredRects(1500, 46, 2, 0.03);
  const auto s = testutil::ClusteredRects(1500, 47, 7, 0.03);
  JoinOptions join;
  for (const unsigned shards : {2u, 4u, 8u}) {
    ExpectShardedMatchesSingle(r, s, join, shards, 16);
  }
}

TEST(ShardedJoin, WithinDistanceAcrossShardBorders) {
  // Two point clouds hugging opposite sides of the center tile border:
  // no pair intersects, every qualifying pair crosses the shard
  // boundary and exists only because replication is expansion-aware.
  std::vector<Rect> r;
  std::vector<Rect> s;
  Rng rng(48);
  for (int i = 0; i < 120; ++i) {
    const Coord y = static_cast<Coord>(rng.Uniform(0.0, 1.0));
    const Coord xr = static_cast<Coord>(0.5 - rng.Uniform(0.001, 0.02));
    const Coord xs = static_cast<Coord>(0.5 + rng.Uniform(0.001, 0.02));
    r.push_back(Rect{xr, y, xr, y});
    s.push_back(Rect{xs, y, xs, y});
  }
  r.push_back(Rect{0, 0, 0, 0});  // pin the universe to [0,1]-ish
  s.push_back(Rect{1, 1, 1, 1});
  JoinOptions join;
  join.predicate = JoinPredicate::kWithinDistance;
  join.epsilon = 0.05;
  ExpectShardedMatchesSingle(r, s, join, 2, 2);
  ExpectShardedMatchesSingle(r, s, join, 4, 8);
  // Sanity: the workload is non-trivial (some pairs do qualify).
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation ri(r, topt);
  const IndexedRelation si(s, topt);
  EXPECT_GT(RunSpatialJoin(ri.tree(), si.tree(), join).pair_count, 0u);
}

TEST(ShardedJoin, EmptyShardsAndEmptySidesAreSkipped) {
  // All data in one corner at K=8: most shards are empty on both sides.
  const auto r = testutil::ClusteredRects(300, 49, 1, 0.01);
  const auto s = testutil::ClusteredRects(300, 50, 1, 0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  ShardedJoinOptions sopt;
  sopt.exec.collect_pairs = true;
  const Declustering decl =
      Declustering::Build(r, s, DeclusterOptions{8, 16});
  ShardBuildOptions build;
  build.tree = topt;
  const ShardedDataset rd(&decl, r, build, nullptr);
  const ShardedDataset sd(&decl, s, build, nullptr);
  const ShardedJoinResult joined = RunShardedSpatialJoin(rd, sd, sopt);
  EXPECT_LE(joined.shards_joined, 8u);
  const IndexedRelation ri(r, topt);
  const IndexedRelation si(s, topt);
  EXPECT_EQ(joined.pair_count,
            RunSpatialJoin(ri.tree(), si.tree(), sopt.join).pair_count);

  // An empty side yields an empty result without joining any shard.
  const std::vector<Rect> empty;
  const Declustering decl2 =
      Declustering::Build(r, empty, DeclusterOptions{4, 8});
  const ShardedDataset rd2(&decl2, r, build, nullptr);
  const ShardedDataset sd2(&decl2, empty, build, nullptr);
  const ShardedJoinResult none = RunShardedSpatialJoin(rd2, sd2, sopt);
  EXPECT_EQ(none.pair_count, 0u);
  EXPECT_EQ(none.shards_joined, 0u);
}

TEST(ShardedJoin, ShardLocalSchedulersMergeClocksByMax) {
  const auto r = testutil::ClusteredRects(1200, 51, 4, 0.02);
  const auto s = testutil::ClusteredRects(1200, 52, 4, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  ShardedJoinOptions sopt;
  sopt.join.buffer_bytes = 8 * 1024;  // small buffer: real misses
  sopt.exec.num_threads = 2;
  sopt.disks_per_shard = 2;
  const Declustering decl = Declustering::Build(r, s, DeclusterOptions{4, 8});
  ShardBuildOptions build;
  build.tree = topt;
  const ShardedDataset rd(&decl, r, build, nullptr);
  const ShardedDataset sd(&decl, s, build, nullptr);
  const ShardedJoinResult joined = RunShardedSpatialJoin(rd, sd, sopt);
  ASSERT_GT(joined.shards_joined, 1u);
  EXPECT_GT(joined.modeled_elapsed_micros, 0u);
  // The run models K independent disk arrays: elapsed is the max over
  // the per-shard clocks, not their sum.
  uint64_t max_shard = 0;
  uint64_t sum_shards = 0;
  for (const uint64_t micros : joined.shard_modeled_micros) {
    max_shard = std::max(max_shard, micros);
    sum_shards += micros;
  }
  EXPECT_EQ(joined.modeled_elapsed_micros, max_shard);
  EXPECT_LT(joined.modeled_elapsed_micros, sum_shards);
}

// At one thread the shard-pair joins still read through their shard's
// scheduler, so every joined shard reports modeled time.
TEST(ShardedJoin, OneThreadShardsReportModeledTime) {
  const auto r = testutil::ClusteredRects(1200, 51, 4, 0.02);
  const auto s = testutil::ClusteredRects(1200, 52, 4, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  ShardedJoinOptions sopt;
  sopt.join.buffer_bytes = 8 * 1024;
  sopt.exec.num_threads = 1;
  sopt.disks_per_shard = 1;
  const Declustering decl = Declustering::Build(r, s, DeclusterOptions{4, 8});
  ShardBuildOptions build;
  build.tree = topt;
  const ShardedDataset rd(&decl, r, build, nullptr);
  const ShardedDataset sd(&decl, s, build, nullptr);
  const ShardedJoinResult joined = RunShardedSpatialJoin(rd, sd, sopt);
  ASSERT_GT(joined.shards_joined, 1u);
  ASSERT_GT(joined.stats.disk_reads, 0u);
  unsigned timed = 0;
  for (unsigned k = 0; k < rd.num_shards(); ++k) {
    if (rd.shard_tree(k).size() == 0 || sd.shard_tree(k).size() == 0) {
      continue;
    }
    EXPECT_GT(joined.shard_modeled_micros[k], 0u) << "shard " << k;
    ++timed;
  }
  EXPECT_EQ(timed, joined.shards_joined);
  EXPECT_GT(joined.modeled_elapsed_micros, 0u);
}

}  // namespace
}  // namespace rsj
