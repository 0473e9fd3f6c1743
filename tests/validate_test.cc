// Failure injection for the structural validator: corrupt a valid tree in
// every way Validate() claims to detect and check that it does.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>

#include "rtree/rtree.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// Builds a healthy two-level tree and returns it with its file.
struct Fixture {
  PagedFile file{kPageSize1K};
  std::unique_ptr<RTree> tree;

  Fixture() {
    RTreeOptions options;
    options.page_size = kPageSize1K;
    tree = std::make_unique<RTree>(&file, options);
    // Enough entries for height 3, so the root's children are directory
    // nodes (several corruptions below rely on that shape).
    const auto rects = testutil::ClusteredRects(4000, 991);
    for (uint32_t i = 0; i < rects.size(); ++i) {
      tree->Insert(rects[i], i);
    }
  }

  // First child page of the root (a directory node's child).
  PageId FirstChild() {
    return ViewNode(file, tree->root_page()).entries.ref[0];
  }

  // Rewrites the node on `page` whole after `edit` has changed a copy of
  // its level and entries.
  template <typename Edit>
  void Rewrite(PageId page, Edit edit) {
    const NodeView view = ViewNode(file, page);
    uint8_t level = view.level;
    std::vector<Entry> entries;
    for (uint32_t i = 0; i < view.size(); ++i) {
      entries.push_back(view.entries.entry(i));
    }
    edit(&level, &entries);
    WriteNode(&file, page, level, entries);
  }

  bool HasError(const char* needle) {
    for (const std::string& e : tree->Validate()) {
      if (e.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

using Entries = std::vector<Entry>;

TEST(ValidateInjectionTest, HealthyTreeIsClean) {
  Fixture fx;
  EXPECT_TRUE(fx.tree->Validate().empty());
  EXPECT_GE(fx.tree->height(), 3);
}

TEST(ValidateInjectionTest, DetectsDanglingReference) {
  Fixture fx;
  fx.Rewrite(fx.tree->root_page(), [](uint8_t*, Entries* entries) {
    (*entries)[0].ref = 0xFFFFFF;  // far beyond the file
  });
  EXPECT_TRUE(fx.HasError("beyond the file"));
}

TEST(ValidateInjectionTest, DetectsWrongParentMbr) {
  Fixture fx;
  const PageId root = fx.tree->root_page();
  Rect rect = ViewNode(fx.file, root).entries.rect(0);
  rect.xu += 1.0f;  // no longer the exact union
  SetEntryRect(&fx.file, root, 0, rect);
  EXPECT_TRUE(fx.HasError("exact union"));
}

TEST(ValidateInjectionTest, DetectsUnderfullNode) {
  Fixture fx;
  const PageId child = fx.FirstChild();
  const Rect old_mbr = ViewNode(fx.file, child).ComputeMbr();
  fx.Rewrite(child, [&](uint8_t*, Entries* entries) {
    entries->resize(2);  // far below the 40% minimum
    // Keep the parent MBR consistent so only the fill violation fires…
    (*entries)[0].rect = old_mbr;
  });
  EXPECT_TRUE(fx.HasError("under minimum"));
}

TEST(ValidateInjectionTest, DetectsLevelCorruption) {
  Fixture fx;
  fx.Rewrite(fx.FirstChild(), [](uint8_t* level, Entries*) { ++*level; });
  EXPECT_TRUE(fx.HasError("unbalanced"));
}

TEST(ValidateInjectionTest, DetectsPageAliasing) {
  Fixture fx;
  fx.Rewrite(fx.tree->root_page(), [](uint8_t*, Entries* entries) {
    ASSERT_GE(entries->size(), 2u);
    (*entries)[1].ref = (*entries)[0].ref;  // two entries, one child
  });
  EXPECT_TRUE(fx.HasError("referenced more than once"));
}

TEST(ValidateInjectionTest, DetectsSizeMismatch) {
  Fixture fx;
  // Drop a grandchild data entry without telling the tree.
  const PageId leaf = ViewNode(fx.file, fx.FirstChild()).entries.ref[0];
  EraseEntry(&fx.file, leaf, ViewNode(fx.file, leaf).size() - 1);
  EXPECT_TRUE(fx.HasError("data entries") || fx.HasError("exact union"));
}

TEST(ValidateInjectionTest, DetectsInvalidEntryRect) {
  Fixture fx;
  const PageId child = fx.FirstChild();
  Rect rect = ViewNode(fx.file, child).entries.rect(0);
  std::swap(rect.xl, rect.xu);
  rect.xl += 1.0f;  // guarantee inversion
  SetEntryRect(&fx.file, child, 0, rect);
  EXPECT_TRUE(fx.HasError("invalid entry rectangle") ||
              fx.HasError("exact union"));
}

// An infinite coordinate is invalid even where every parent rectangle is
// the exact union below it: a loaded file holding one is rejected.
TEST(ValidateInjectionTest, DetectsInfiniteEntryRect) {
  Fixture fx;
  const PageId child = fx.FirstChild();
  const PageId leaf = ViewNode(fx.file, child).entries.ref[0];
  for (const auto [page, slot] : {std::pair{leaf, 0u}, std::pair{child, 0u},
                                  std::pair{fx.tree->root_page(), 0u}}) {
    Rect rect = ViewNode(fx.file, page).entries.rect(slot);
    rect.xu = std::numeric_limits<Coord>::infinity();
    SetEntryRect(&fx.file, page, slot, rect);
  }
  EXPECT_TRUE(fx.HasError("invalid entry rectangle"));
  EXPECT_FALSE(fx.HasError("exact union"));
}

// A page that holds no node is a reported violation: the walk reads pages
// through the checked view and never aborts.
TEST(ValidateInjectionTest, DetectsPageWithoutNodeMagic) {
  Fixture fx;
  const PageId child = fx.FirstChild();
  fx.file.MutablePageData(child)[kNodeMagicByte] = std::byte{0};
  EXPECT_TRUE(fx.HasError("holds no R-tree node"));
  fx.file.MutablePageData(child)[kNodeMagicByte] = std::byte{kNodeMagic};
  const uint16_t count = NodeCapacity(kPageSize1K) + 1;
  std::memcpy(fx.file.MutablePageData(child) + kNodeCountByte, &count,
              sizeof(count));
  EXPECT_TRUE(fx.HasError("holds no R-tree node"));
}

TEST(ValidateInjectionTest, DetectsBadFreeList) {
  Fixture fx;
  const PageId spare = fx.file.Allocate();  // zeroed and unreachable
  fx.file.RestoreFreeList({spare});
  EXPECT_TRUE(fx.tree->Validate().empty());
  fx.file.RestoreFreeList(
      {static_cast<PageId>(fx.file.allocated_pages() + 3)});
  EXPECT_TRUE(fx.HasError("free page")) << "out of range";
  EXPECT_TRUE(fx.HasError("beyond the file"));
  fx.file.RestoreFreeList({spare, spare});
  EXPECT_TRUE(fx.HasError("listed twice"));
  fx.file.RestoreFreeList({spare, fx.FirstChild()});
  EXPECT_TRUE(fx.HasError("reachable from the root"));
}

}  // namespace
}  // namespace rsj
