// Tests for CSV dataset interchange and the analytic cost estimator.

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <vector>

#include "datagen/io.h"
#include "datagen/tiger_like.h"
#include "geom/segment.h"
#include "join/cost_estimator.h"
#include "join/join_runner.h"
#include "rtree/node.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

class CsvIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rsj_io_test_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()) +
             ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(CsvIoTest, RoundTripWithGeometry) {
  StreetsConfig config;
  config.object_count = 500;
  const Dataset original = GenerateStreets(config);
  ASSERT_TRUE(WriteDatasetCsv(original, path_.string()));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, original.name);
  ASSERT_EQ(loaded->objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    ASSERT_EQ(loaded->objects[i].id, original.objects[i].id);
    ASSERT_EQ(loaded->objects[i].chain.size(),
              original.objects[i].chain.size());
    // Coordinates survive the %.9g round trip exactly (floats).
    ASSERT_EQ(loaded->objects[i].mbr, original.objects[i].mbr);
    for (size_t v = 0; v < original.objects[i].chain.size(); ++v) {
      ASSERT_EQ(loaded->objects[i].chain[v], original.objects[i].chain[v]);
    }
  }
}

TEST_F(CsvIoTest, RoundTripWithoutGeometry) {
  RegionsConfig config;
  config.object_count = 300;
  const Dataset original = GenerateRegions(config);
  ASSERT_TRUE(WriteDatasetCsv(original, path_.string(),
                              /*with_geometry=*/false));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    ASSERT_EQ(loaded->objects[i].mbr, original.objects[i].mbr);
    EXPECT_TRUE(loaded->objects[i].chain.empty());
  }
}

TEST_F(CsvIoTest, MissingFile) {
  EXPECT_FALSE(ReadDatasetCsv("/nonexistent/dataset.csv").has_value());
}

TEST_F(CsvIoTest, MalformedRowRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# rsj dataset: broken\n1,0.1,0.2,not_a_number,0.4\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
}

TEST_F(CsvIoTest, InvalidMbrRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("7,0.9,0.2,0.1,0.4\n", f);  // xl > xu
  std::fclose(f);
  EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
}

// A coordinate a float cannot hold stops at the file: an infinity, or a
// magnitude that rounds above FLT_MAX (its cast to float overflows), in
// the MBR or in a vertex, even where the MBR and the vertices agree.
TEST_F(CsvIoTest, NonFiniteCoordinatesRejected) {
  for (const char* row :
       {"1,0,0,inf,1\n", "1,-inf,0,0,1\n", "1,0,0,1e39,1\n",
        "1,0,-1e39,1,1\n", "1,0,0,3.4028236e38,1\n", "1,inf,0,inf,1\n",
        "1,0,nan,1,1\n", "1,0,0,inf,1,0 0 inf 1\n",
        "1,-inf,0,0,1,-inf 0 0 1\n", "1,0,0,1,1,0 0 1 1e39\n",
        "1,0,0,1,1,0 0 1 inf\n", "1,0,0,1,1,-inf 0 1 1\n"}) {
    SCOPED_TRACE(row);
    std::FILE* f = std::fopen(path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("7,0,0,1,1,0 0 1 1\n", f);  // a valid row first
    std::fputs(row, f);
    std::fclose(f);
    EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
  }
}

// A row longer than any fixed line buffer reads back whole: one object
// whose 1,000-vertex chain makes a row of about 24 KB, between two short
// rows.
TEST_F(CsvIoTest, LongRowRoundTrips) {
  Dataset original;
  original.name = "long";
  for (uint32_t id = 0; id < 3; ++id) {
    SpatialObject o;
    o.id = id;
    const size_t vertices = id == 1 ? 1000 : 2;
    for (size_t v = 0; v < vertices; ++v) {
      const float step = static_cast<float>(v);
      o.chain.push_back(Point{0.123456789f + 0.000731f * step,
                              0.987654321f - 0.000517f * step});
    }
    o.mbr = PolylineMbr(o.chain);
    original.objects.push_back(o);
  }
  ASSERT_TRUE(WriteDatasetCsv(original, path_.string()));
  ASSERT_GT(std::filesystem::file_size(path_), 20000u);
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    EXPECT_EQ(loaded->objects[i].id, original.objects[i].id);
    EXPECT_EQ(loaded->objects[i].mbr, original.objects[i].mbr);
    ASSERT_EQ(loaded->objects[i].chain.size(),
              original.objects[i].chain.size());
    for (size_t v = 0; v < original.objects[i].chain.size(); ++v) {
      EXPECT_EQ(loaded->objects[i].chain[v], original.objects[i].chain[v]);
    }
  }
}

// The largest floats round-trip: FLT_MAX is written as 3.40282347e+38,
// above FLT_MAX as a double, and reads back as FLT_MAX.
TEST_F(CsvIoTest, FloatRangeEdgesRoundTrip) {
  constexpr Coord kMax = std::numeric_limits<Coord>::max();
  Dataset original;
  original.name = "edges";
  SpatialObject o;
  o.id = 3;
  o.chain = {Point{-kMax, -kMax}, Point{kMax, 0}, Point{0, kMax}};
  o.mbr = PolylineMbr(o.chain);
  original.objects.push_back(o);
  ASSERT_TRUE(WriteDatasetCsv(original, path_.string()));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->objects.size(), 1u);
  EXPECT_EQ(loaded->objects[0].mbr, o.mbr);
  ASSERT_EQ(loaded->objects[0].chain.size(), o.chain.size());
  for (size_t v = 0; v < o.chain.size(); ++v) {
    EXPECT_EQ(loaded->objects[0].chain[v], o.chain[v]);
  }
}

TEST_F(CsvIoTest, GeometryMbrMismatchRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("7,0.0,0.0,1.0,1.0,5 5 6 6\n", f);  // chain outside MBR
  std::fclose(f);
  EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
}

TEST_F(CsvIoTest, LoadedDatasetJoinsLikeOriginal) {
  StreetsConfig sc;
  sc.object_count = 400;
  RiversConfig rc;
  rc.object_count = 350;
  const Dataset streets = GenerateStreets(sc);
  const Dataset rivers = GenerateRivers(rc);
  ASSERT_TRUE(WriteDatasetCsv(streets, path_.string()));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());

  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(streets.Mbrs(), topt);
  IndexedRelation a2(loaded->Mbrs(), topt);
  IndexedRelation b(rivers.Mbrs(), topt);
  JoinOptions jopt;
  EXPECT_EQ(RunSpatialJoin(a.tree(), b.tree(), jopt).pair_count,
            RunSpatialJoin(a2.tree(), b.tree(), jopt).pair_count);
}

// --- cost estimator ---

// The test's own profile of `tree`: every node decoded straight from the
// file, in the tree walk's order (a depth-first stack from the root,
// children pushed in entry order), so the floating-point sums match.
TreeProfile WalkProfile(const RTree& tree) {
  TreeProfile profile;
  profile.levels.resize(static_cast<size_t>(tree.height()));
  std::vector<PageId> stack{tree.root_page()};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    const NodeView node = ViewNode(tree.file(), page);
    if (page == tree.root_page()) profile.root_mbr = node.ComputeMbr();
    LevelProfile& level = profile.levels.at(node.level);
    ++level.nodes;
    for (uint32_t i = 0; i < node.size(); ++i) {
      const Entry e = node.entries.entry(i);
      ++level.entries;
      level.mean_width += static_cast<double>(e.rect.xu) - e.rect.xl;
      level.mean_height += static_cast<double>(e.rect.yu) - e.rect.yl;
      if (!node.is_leaf()) stack.push_back(e.ref);
    }
  }
  for (LevelProfile& level : profile.levels) {
    if (level.entries > 0) {
      level.mean_width /= static_cast<double>(level.entries);
      level.mean_height /= static_cast<double>(level.entries);
    }
  }
  return profile;
}

void ExpectSameLevel(const LevelProfile& a, const LevelProfile& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.mean_width, b.mean_width);
  EXPECT_EQ(a.mean_height, b.mean_height);
  EXPECT_EQ(a.entries, b.entries);
}

// EstimateJoinCost on the trees' held profiles equals, bit for bit, the
// estimate from profiles walked right now.
void ExpectEstimateMatchesWalk(const RTree& r, const RTree& s) {
  const JoinCostEstimate held = EstimateJoinCost(r, s);
  const JoinCostEstimate walked =
      EstimateJoinCost(WalkProfile(r), WalkProfile(s));
  EXPECT_EQ(held.node_pairs, walked.node_pairs);
  EXPECT_EQ(held.page_reads, walked.page_reads);
  EXPECT_EQ(held.sj1_comparisons, walked.sj1_comparisons);
  EXPECT_EQ(held.result_pairs, walked.result_pairs);
  EXPECT_EQ(held.space_width, walked.space_width);
  EXPECT_EQ(held.space_height, walked.space_height);
  ExpectSameLevel(held.r_leaf, walked.r_leaf);
  ExpectSameLevel(held.s_leaf, walked.s_leaf);
}

TEST(CostEstimatorTest, HeldProfileFollowsEveryMutation) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation s(testutil::RandomRects(800, 66, 0.02), topt);
  const auto rects = testutil::RandomRects(1500, 67, 0.01);
  PagedFile file(kPageSize1K);
  RTree r(&file, topt);
  for (uint32_t i = 0; i < 1000; ++i) r.Insert(rects[i], i);
  {
    SCOPED_TRACE("built by Insert");
    ExpectEstimateMatchesWalk(r, s.tree());
  }
  for (uint32_t i = 1000; i < rects.size(); ++i) r.Insert(rects[i], i);
  {
    SCOPED_TRACE("after Insert");
    ExpectEstimateMatchesWalk(r, s.tree());
  }
  for (uint32_t i = 0; i < 600; ++i) ASSERT_TRUE(r.Delete(rects[i], i));
  {
    SCOPED_TRACE("after Delete");
    ExpectEstimateMatchesWalk(r, s.tree());
  }

  // A tree profiled while empty, then bulk-loaded.
  PagedFile bulk_file(kPageSize1K);
  RTree bulk(&bulk_file, topt);
  {
    SCOPED_TRACE("empty");
    ExpectEstimateMatchesWalk(bulk, s.tree());
  }
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    entries.push_back(Entry{rects[i], i});
  }
  bulk.BulkLoadStr(entries, /*fill_fraction=*/0.7);
  {
    SCOPED_TRACE("after BulkLoadStr");
    ExpectEstimateMatchesWalk(bulk, s.tree());
  }

  // The persistence load path re-attaches a tree to stored pages.
  const RTree attached = RTree::Attach(&bulk_file, topt, bulk.root_page(),
                                       bulk.height(), bulk.size());
  {
    SCOPED_TRACE("attached");
    ExpectEstimateMatchesWalk(s.tree(), attached);
  }
}

TEST(CostEstimatorTest, ProfileCountsLevels) {
  const auto rects = testutil::RandomRects(2000, 61, 0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation rel(rects, topt);
  const auto& profile = rel.tree().Profile().levels;
  ASSERT_EQ(profile.size(), static_cast<size_t>(rel.tree().height()));
  EXPECT_EQ(profile[0].entries, rects.size());  // leaf level holds the data
  size_t total_nodes = 0;
  for (const LevelProfile& level : profile) total_nodes += level.nodes;
  EXPECT_EQ(total_nodes, rel.tree().ComputeStats().TotalPages());
  EXPECT_GT(profile[0].mean_width, 0.0);
}

TEST(CostEstimatorTest, UniformDataWithinSmallFactor) {
  // Uniform rectangles satisfy the estimator's assumption: the predicted
  // result cardinality and I/O must land within a small factor.
  const auto rects_r = testutil::RandomRects(4000, 62, 0.01);
  const auto rects_s = testutil::RandomRects(4000, 63, 0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  const JoinCostEstimate estimate = EstimateJoinCost(r.tree(), s.tree());

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ1;
  jopt.buffer_bytes = 0;
  const auto measured = RunSpatialJoin(r.tree(), s.tree(), jopt);

  EXPECT_GT(estimate.result_pairs, 0.3 * measured.pair_count);
  EXPECT_LT(estimate.result_pairs, 3.0 * measured.pair_count);
  EXPECT_GT(estimate.page_reads, 0.3 * measured.stats.disk_reads);
  EXPECT_LT(estimate.page_reads, 3.0 * measured.stats.disk_reads);
  EXPECT_GT(estimate.sj1_comparisons,
            0.2 * measured.stats.TotalComparisons());
  EXPECT_LT(estimate.sj1_comparisons,
            5.0 * measured.stats.TotalComparisons());
  EXPECT_GT(estimate.node_pairs, 0.3 * measured.stats.node_pairs);
  EXPECT_LT(estimate.node_pairs, 3.0 * measured.stats.node_pairs);
}

TEST(CostEstimatorTest, SkewBreaksTheUniformityAssumption) {
  // The paper's point (§4): "analytical results are restricted ... to
  // uniformly distributed data very rarely occurring in real applications".
  // On clustered relations whose clusters do not coincide, the uniform
  // model must misestimate the result substantially (here: it spreads the
  // clusters over the whole space and overestimates the overlap).
  const auto rects_r = testutil::ClusteredRects(4000, 64, 3, 0.01);
  const auto rects_s = testutil::ClusteredRects(4000, 65, 3, 0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  const JoinCostEstimate estimate = EstimateJoinCost(r.tree(), s.tree());
  JoinOptions jopt;
  const auto measured = RunSpatialJoin(r.tree(), s.tree(), jopt);
  const double ratio =
      estimate.result_pairs / std::max<double>(1.0, measured.pair_count);
  EXPECT_TRUE(ratio > 2.0 || ratio < 0.5)
      << "estimate " << estimate.result_pairs << " vs measured "
      << measured.pair_count;
}

}  // namespace
}  // namespace rsj
