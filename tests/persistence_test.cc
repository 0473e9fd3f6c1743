// Tests for saving/loading indexed relations: round trips, query
// equivalence, corruption and truncation detection (seeded bit flips in
// the header and in page bytes, page checksums, truncated page arrays, a
// version-1 file), rejection of stored options a tree cannot run with, and
// rejection of pages that do not form the stored tree.

#include "storage/persistence.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <utility>
#include <vector>

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
// the first join and a missing magic aborts in the first ViewNode.
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

  // Raw node-page fields, at rtree/node.h's layout offsets.
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
  // Coordinate `c` (0: xl, 1: yl, 2: xu, 3: yu) of entry `slot` on `page`.
  Coord GetCoord(PageId page, uint32_t slot, int c) {
    Coord value = 0;
    std::memcpy(&value, Page(page) + CoordOffset(slot, c), sizeof(value));
    return value;
  }
  void SetCoord(PageId page, uint32_t slot, int c, Coord value) {
    std::memcpy(Page(page) + CoordOffset(slot, c), &value, sizeof(value));
  }

  RTreeOptions options_;
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<RTree> tree_;
  StoredTreeMeta meta_;

 private:
  size_t ChildOffset(uint32_t slot) const {
    return NodeFieldOffset(file_->page_size(), NodeColumn::kRef, slot);
  }
  size_t CoordOffset(uint32_t slot, int c) const {
    return NodeFieldOffset(file_->page_size(), static_cast<NodeColumn>(c),
                           slot);
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
  Page(root())[kNodeMagicByte] = std::byte{0};
  EXPECT_FALSE(Loads());
  Page(root())[kNodeMagicByte] = std::byte{kNodeMagic};
  ASSERT_TRUE(Loads());
  Page(Child(1))[kNodeMagicByte] = std::byte{0};
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, EntryCountAboveCapacityRejected) {
  // One past capacity would also read a child id past the page's end.
  const uint16_t count = NodeCapacity(kPageSize1K) + 1;
  std::memcpy(Page(root()) + kNodeCountByte, &count, sizeof(count));
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, LevelMismatchRejected) {
  // A data node claiming to be a directory under a level-1 root.
  Page(Child(0))[kNodeLevelByte] = std::byte{1};
  EXPECT_FALSE(Loads());
  Page(Child(0))[kNodeLevelByte] = std::byte{0};
  ASSERT_TRUE(Loads());
  // A root whose level disagrees with the stored height.
  Page(root())[kNodeLevelByte] = std::byte{2};
  EXPECT_FALSE(Loads());
}

TEST_F(PersistenceStructureTest, EntryOutsideItsParentRejected) {
  // Move a leaf entry's upper x just past its directory entry's: the
  // parent no longer covers it, so a join would prune it away.
  const PageId leaf = Child(0);
  const Coord parent_xu = GetCoord(root(), 0, 2);
  const Coord original = GetCoord(leaf, 0, 2);
  SetCoord(leaf, 0, 2,
           std::nextafter(parent_xu, std::numeric_limits<Coord>::infinity()));
  EXPECT_FALSE(Loads());
  SetCoord(leaf, 0, 2, original);
  EXPECT_TRUE(Loads());
}

TEST_F(PersistenceStructureTest, InvalidEntryRectangleRejected) {
  const PageId leaf = Child(1);
  const Coord xl = GetCoord(leaf, 0, 0);
  const Coord xu = GetCoord(leaf, 0, 2);
  // A NaN coordinate, in a data entry and in a directory entry.
  SetCoord(leaf, 0, 0, std::numeric_limits<Coord>::quiet_NaN());
  EXPECT_FALSE(Loads());
  SetCoord(leaf, 0, 0, xl);
  ASSERT_TRUE(Loads());
  const Coord root_yu = GetCoord(root(), 1, 3);
  SetCoord(root(), 1, 3, std::numeric_limits<Coord>::quiet_NaN());
  EXPECT_FALSE(Loads());
  SetCoord(root(), 1, 3, root_yu);
  ASSERT_TRUE(Loads());
  // An inverted rectangle: xl > xu, still inside its parent's x range.
  ASSERT_LT(xl, xu);
  SetCoord(leaf, 0, 0, xu);
  SetCoord(leaf, 0, 2, xl);
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

// Version-2 integrity: seeded corruption of a saved file. The page array
// ends the file, every page followed by its 8-byte FNV-1a checksum; the
// header and the free list come before it. Every corrupted or truncated
// file must load as an error, never abort.
class PersistenceCorruptionTest : public PersistenceTest {
 protected:
  void SetUp() override {
    PersistenceTest::SetUp();
    file_ = std::make_unique<PagedFile>(kPageSize1K);
    RTreeOptions options;
    options.page_size = kPageSize1K;
    tree_ = std::make_unique<RTree>(BuildRTree(
        file_.get(), testutil::RandomRects(600, 83, 0.02), options));
    ASSERT_TRUE(SaveIndexedRelation(*file_, MetaOf(*tree_), path_.string()));
    saved_ = ReadBytes();
    ASSERT_TRUE(LoadIndexedRelation(path_.string()).has_value());
  }

  std::vector<unsigned char> ReadBytes() const {
    std::vector<unsigned char> bytes(std::filesystem::file_size(path_));
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  bool Loads(const std::vector<unsigned char>& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return LoadIndexedRelation(path_.string()).has_value();
  }

  static constexpr size_t kStride = kPageSize1K + sizeof(uint64_t);
  size_t PagesBegin() const {
    return saved_.size() - file_->allocated_pages() * kStride;
  }
  size_t HeaderBytes() const {
    return PagesBegin() - file_->free_list().size() * sizeof(PageId);
  }

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<RTree> tree_;
  std::vector<unsigned char> saved_;
};

TEST_F(PersistenceCorruptionTest, SeededPageBitFlipsRejected) {
  std::mt19937_64 rng(91);
  for (int trial = 0; trial < 48; ++trial) {
    // Anywhere in a page: the header, a live entry, or bytes past the
    // entry count that only the page checksum covers; every eighth trial
    // flips a bit of a checksum instead.
    const size_t page = rng() % file_->allocated_pages();
    const size_t span = trial % 8 == 7 ? sizeof(uint64_t) : kPageSize1K;
    const size_t at = PagesBegin() + page * kStride +
                      (trial % 8 == 7 ? kPageSize1K : 0) + rng() % span;
    std::vector<unsigned char> bytes = saved_;
    bytes[at] ^= static_cast<unsigned char>(1u << (rng() % 8));
    EXPECT_FALSE(Loads(bytes)) << "trial " << trial << " byte " << at;
  }
}

TEST_F(PersistenceCorruptionTest, SeededHeaderBitFlipsRejected) {
  std::mt19937_64 rng(92);
  for (int trial = 0; trial < 48; ++trial) {
    const size_t at = rng() % HeaderBytes();
    std::vector<unsigned char> bytes = saved_;
    bytes[at] ^= static_cast<unsigned char>(1u << (rng() % 8));
    EXPECT_FALSE(Loads(bytes)) << "trial " << trial << " byte " << at;
  }
}

TEST_F(PersistenceCorruptionTest, TruncatedPageArrayRejected) {
  const size_t end = saved_.size();
  for (const size_t length :
       {PagesBegin(), PagesBegin() + 1, PagesBegin() + kStride,
        end - kStride - 1, end - sizeof(uint64_t) - kPageSize1K / 2,
        end - sizeof(uint64_t), end - 1}) {
    const std::vector<unsigned char> bytes(saved_.begin(),
                                           saved_.begin() + length);
    EXPECT_FALSE(Loads(bytes)) << "length " << length << " of " << end;
  }
}

TEST_F(PersistenceCorruptionTest, VersionOneFileRejected) {
  // The header is magic, then the version (byte 4), ..., then the FNV-1a
  // of the header's preceding bytes: a version-1 header with a valid
  // checksum is rejected by its version alone.
  const auto with_version = [&](uint32_t version) {
    std::vector<unsigned char> bytes = saved_;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    uint64_t hash = 0xcbf29ce484222325ULL;
    const size_t checksum_at = HeaderBytes() - sizeof(uint64_t);
    for (size_t i = 0; i < checksum_at; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
    std::memcpy(bytes.data() + checksum_at, &hash, sizeof(hash));
    return bytes;
  };
  EXPECT_TRUE(Loads(with_version(2)));
  EXPECT_FALSE(Loads(with_version(1)));
  EXPECT_FALSE(Loads(with_version(3)));
}

}  // namespace
}  // namespace rsj
