// Tests for saving/loading indexed relations: round trips, query
// equivalence, corruption and truncation detection, rejection of stored
// options a tree cannot run with, and rejection of pages that do not form
// the stored tree.

#include "storage/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "join/join_runner.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rsj_persistence_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

StoredTreeMeta MetaOf(const RTree& tree) {
  StoredTreeMeta meta;
  meta.root_page = tree.root_page();
  meta.height = tree.height();
  meta.size = tree.size();
  meta.options = tree.options();
  return meta;
}

TEST_F(PersistenceTest, RoundTripPreservesQueries) {
  const auto rects = testutil::ClusteredRects(2000, 71);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);

  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->tree->size(), tree.size());
  EXPECT_EQ(loaded->tree->height(), tree.height());
  EXPECT_EQ(loaded->tree->root_page(), tree.root_page());
  EXPECT_TRUE(loaded->tree->Validate().empty());

  const auto windows = testutil::RandomRects(30, 72, 0.2);
  for (const Rect& w : windows) {
    std::vector<uint32_t> original;
    std::vector<uint32_t> reloaded;
    tree.WindowQuery(w, &original);
    loaded->tree->WindowQuery(w, &reloaded);
    std::sort(original.begin(), original.end());
    std::sort(reloaded.begin(), reloaded.end());
    ASSERT_EQ(original, reloaded);
  }
}

TEST_F(PersistenceTest, LoadedTreeIsMutable) {
  const auto rects = testutil::RandomRects(500, 73, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());

  loaded->tree->Insert(Rect{0.5f, 0.5f, 0.51f, 0.51f}, 9999);
  EXPECT_EQ(loaded->tree->size(), rects.size() + 1);
  ASSERT_TRUE(loaded->tree->Delete(rects[7], 7));
  EXPECT_TRUE(loaded->tree->Validate().empty());
}

TEST_F(PersistenceTest, JoinOnLoadedTrees) {
  const auto rects_r = testutil::ClusteredRects(800, 74);
  const auto rects_s = testutil::ClusteredRects(700, 75);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file_r(topt.page_size);
  RTree tree_r = BuildRTree(&file_r, rects_r, topt);
  PagedFile file_s(topt.page_size);
  RTree tree_s = BuildRTree(&file_s, rects_s, topt);

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const auto before = RunSpatialJoin(tree_r, tree_s, jopt, true);

  const std::string path_s = path_.string() + ".s";
  ASSERT_TRUE(SaveIndexedRelation(file_r, MetaOf(tree_r), path_.string()));
  ASSERT_TRUE(SaveIndexedRelation(file_s, MetaOf(tree_s), path_s));
  auto loaded_r = LoadIndexedRelation(path_.string());
  auto loaded_s = LoadIndexedRelation(path_s);
  ASSERT_TRUE(loaded_r.has_value());
  ASSERT_TRUE(loaded_s.has_value());
  const auto after =
      RunSpatialJoin(*loaded_r->tree, *loaded_s->tree, jopt, true);
  EXPECT_EQ(testutil::Canonical(after.chunks),
            testutil::Canonical(before.chunks));
  std::filesystem::remove(path_s);
}

TEST_F(PersistenceTest, MissingFile) {
  EXPECT_FALSE(LoadIndexedRelation("/nonexistent/rsj.idx").has_value());
}

TEST_F(PersistenceTest, TruncatedFileRejected) {
  const auto rects = testutil::RandomRects(300, 76, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));

  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size / 2);
  EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value());
}

TEST_F(PersistenceTest, CorruptedHeaderRejected) {
  const auto rects = testutil::RandomRects(300, 77, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));

  // Flip a byte inside the header region.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 16, SEEK_SET);
  const unsigned char garbage = 0xFF;
  std::fwrite(&garbage, 1, 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value());
}

TEST_F(PersistenceTest, EmptyTreeRoundTrip) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree(&file, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tree->size(), 0u);
  std::vector<uint32_t> results;
  loaded->tree->WindowQuery(Rect{0, 0, 1, 1}, &results);
  EXPECT_TRUE(results.empty());
}

TEST_F(PersistenceTest, OptionsSurviveRoundTrip) {
  RTreeOptions topt;
  topt.page_size = kPageSize2K;
  topt.split_policy = SplitPolicy::kQuadratic;
  topt.forced_reinsert = false;
  topt.min_fill_fraction = 0.3;
  PagedFile file(topt.page_size);
  RTree tree(&file, topt);
  const auto rects = testutil::RandomRects(300, 78, 0.02);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);

  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tree->options().split_policy, SplitPolicy::kQuadratic);
  EXPECT_FALSE(loaded->tree->options().forced_reinsert);
  EXPECT_DOUBLE_EQ(loaded->tree->options().min_fill_fraction, 0.3);
  EXPECT_EQ(loaded->file->page_size(), kPageSize2K);
}


// The header checksum only proves the bytes are the ones that were written:
// options the tree cannot run with, saved with a valid checksum, must load
// as an error instead of aborting (in the RTree constructor, at the first
// split or at the first insert) or reaching a float-to-integer cast.
TEST_F(PersistenceTest, UnrunnableOptionsRejected) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, testutil::RandomRects(300, 79, 0.02), topt);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Edit = std::function<void(StoredTreeMeta*)>;
  const std::vector<std::pair<const char*, Edit>> cases = {
      // M = 51 < 2 * floor(0.6 * 51) = 60.
      {"min_fill 0.6", [](auto* m) { m->options.min_fill_fraction = 0.6; }},
      {"min_fill NaN", [](auto* m) { m->options.min_fill_fraction = kNan; }},
      {"min_fill inf", [](auto* m) { m->options.min_fill_fraction = kInf; }},
      {"min_fill -1", [](auto* m) { m->options.min_fill_fraction = -1.0; }},
      {"split_policy 7",
       [](auto* m) { m->options.split_policy = static_cast<SplitPolicy>(7); }},
      {"reinsert NaN", [](auto* m) { m->options.reinsert_fraction = kNan; }},
      {"reinsert 1.5", [](auto* m) { m->options.reinsert_fraction = 1.5; }},
      {"reinsert -0.1", [](auto* m) { m->options.reinsert_fraction = -0.1; }},
      {"height 0", [](auto* m) { m->height = 0; }},
      {"height -3", [](auto* m) { m->height = -3; }},
      {"height beyond pages", [](auto* m) { m->height = 1 << 30; }},
  };
  for (const auto& [name, edit] : cases) {
    StoredTreeMeta meta = MetaOf(tree);
    edit(&meta);
    ASSERT_TRUE(SaveIndexedRelation(file, meta, path_.string())) << name;
    EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value()) << name;
  }
}

// The edges of the accepted ranges still load, and the loaded tree inserts.
TEST_F(PersistenceTest, BoundaryOptionsLoadAndInsert) {
  // At 1 KiB pages f = 0.5 gives m = 25 and M = 51 >= 50.
  const std::vector<std::pair<double, double>> fill_and_reinsert = {
      {0.5, 0.3}, {0.0, 0.0}, {0.4, 1.0}};
  const auto rects = testutil::RandomRects(600, 80, 0.02);
  for (const auto& [fill, reinsert] : fill_and_reinsert) {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    topt.min_fill_fraction = fill;
    topt.reinsert_fraction = reinsert;
    PagedFile file(topt.page_size);
    RTree tree(&file, topt);
    for (uint32_t i = 0; i < 300; ++i) tree.Insert(rects[i], i);
    ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
    auto loaded = LoadIndexedRelation(path_.string());
    ASSERT_TRUE(loaded.has_value()) << "fill " << fill << " reinsert "
                                    << reinsert;
    for (uint32_t i = 300; i < rects.size(); ++i) {
      loaded->tree->Insert(rects[i], i);
    }
    EXPECT_EQ(loaded->tree->size(), rects.size());
    EXPECT_TRUE(loaded->tree->Validate().empty());
  }
}

// Load-time structure checks. Each case corrupts the pages (or the stored
// size, or the free list) of a valid height-2 tree before saving, so the
// header and its checksum stay valid and only the walk over the pages can
// catch it. Without the walk, a bad child id reads past the page array in
// the first join and a missing magic aborts in Node::Load.
class PersistenceStructureTest : public PersistenceTest {
 protected:
  void SetUp() override {
    PersistenceTest::SetUp();
    options_.page_size = kPageSize1K;
    file_ = std::make_unique<PagedFile>(options_.page_size);
    tree_ = std::make_unique<RTree>(BuildRTree(
        file_.get(), testutil::RandomRects(600, 81, 0.02), options_));
    ASSERT_EQ(tree_->height(), 2);
    meta_ = MetaOf(*tree_);
  }

  bool Loads() {
    EXPECT_TRUE(SaveIndexedRelation(*file_, meta_, path_.string()));
    return LoadIndexedRelation(path_.string()).has_value();
  }

  // Raw node-page fields, laid out as rtree/node.cc writes them:
  // [uint16 count][uint8 level][uint8 magic], then 20-byte entries whose
  // last four bytes are the child page id.
  std::byte* Page(PageId id) { return file_->MutablePageData(id); }
  PageId Child(uint32_t slot) {
    PageId child = 0;
    std::memcpy(&child, Page(root()) + ChildOffset(slot), sizeof(child));
    return child;
  }
  void SetChild(uint32_t slot, PageId child) {
    std::memcpy(Page(root()) + ChildOffset(slot), &child, sizeof(child));
  }
  PageId root() const { return tree_->root_page(); }

  RTreeOptions options_;
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<RTree> tree_;
  StoredTreeMeta meta_;

 private:
  static size_t ChildOffset(uint32_t slot) {
    return kNodeHeaderBytes + slot * kEntryBytes + 16;
  }
};

TEST_F(PersistenceStructureTest, IntactTreeLoads) {
  EXPECT_TRUE(Loads());
}

TEST_F(PersistenceStructureTest, ChildIdBeyondPageCountRejected) {
  SetChild(0, 0x7fffffff);
  EXPECT_FALSE(Loads());
  SetChild(0, static_cast<PageId>(file_->allocated_pages()));
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, PageWithoutNodeMagicRejected) {
  Page(root())[3] = std::byte{0};
  EXPECT_FALSE(Loads());
  Page(root())[3] = std::byte{kNodeMagic};
  ASSERT_TRUE(Loads());
  Page(Child(1))[3] = std::byte{0};
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, EntryCountAboveCapacityRejected) {
  // One past capacity would also read a child id past the page's end.
  const uint16_t count = NodeCapacity(kPageSize1K) + 1;
  std::memcpy(Page(root()), &count, sizeof(count));
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, LevelMismatchRejected) {
  // A data node claiming to be a directory under a level-1 root.
  Page(Child(0))[2] = std::byte{1};
  EXPECT_FALSE(Loads());
  Page(Child(0))[2] = std::byte{0};
  ASSERT_TRUE(Loads());
  // A root whose level disagrees with the stored height.
  Page(root())[2] = std::byte{2};
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, PageReachedTwiceRejected) {
  SetChild(1, Child(0));
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, LeafEntryTotalMismatchRejected) {
  meta_.size = tree_->size() + 1;
  EXPECT_FALSE(Loads());
  meta_.size = tree_->size() - 1;
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, BadFreeListRejected) {
  const PageId spare = file_->Allocate();  // zeroed and unreachable
  file_->RestoreFreeList({spare});
  ASSERT_TRUE(Loads());
  file_->RestoreFreeList(
      {static_cast<PageId>(file_->allocated_pages() + 3)});
  EXPECT_FALSE(Loads()) << "out of range";
  file_->RestoreFreeList({spare, spare});
  EXPECT_FALSE(Loads()) << "listed twice";
  file_->RestoreFreeList({spare, Child(2)});
  EXPECT_FALSE(Loads()) << "reachable data node";
  file_->RestoreFreeList({root()});
  EXPECT_FALSE(Loads()) << "reachable root";
}

}  // namespace
}  // namespace rsj
