#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace rsj {

namespace {

// Slot of the entry of `node` referencing child page `child`.
uint32_t ChildSlot(const NodeView& node, PageId child) {
  const uint32_t* refs = node.entries.ref;
  const uint32_t* it = std::find(refs, refs + node.size(), child);
  RSJ_CHECK_MSG(it != refs + node.size(),
                "parent node lost the entry of its child page");
  return static_cast<uint32_t>(it - refs);
}

// The slot that keeps node entries ordered by their rectangles' lower x
// coordinate: the first whose xl is not below `xl`. The order inside a
// node is semantically free; keeping it (nearly) sorted makes the joins'
// sort-page-on-read step cheap, the option §4.2 of the paper explicitly
// suggests.
uint32_t LowerXSlot(const NodeView& node, Coord xl) {
  const Coord* column = node.entries.xl;
  return static_cast<uint32_t>(
      std::lower_bound(column, column + node.size(), xl) - column);
}

// True when a coordinate of `rect` is -0.0 or +0.0.
bool HasZeroCoord(const Rect& rect) {
  return rect.xl == 0 || rect.yl == 0 || rect.xu == 0 || rect.yu == 0;
}

// The entries of `node`, copied out of its page, with room for one more.
std::vector<Entry> EntriesOf(const NodeView& node) {
  std::vector<Entry> entries;
  entries.reserve(node.size() + 1);
  for (uint32_t i = 0; i < node.size(); ++i) {
    entries.push_back(node.entries.entry(i));
  }
  return entries;
}

}  // namespace

RTree::RTree(PagedFile* file, const RTreeOptions& options, PageId root,
             int height, size_t size)
    : file_(file),
      options_(options),
      capacity_(NodeCapacity(options.page_size)),
      min_entries_(std::max<uint32_t>(
          2, static_cast<uint32_t>(options.min_fill_fraction *
                                   NodeCapacity(options.page_size)))),
      root_(root),
      height_(height),
      size_(size) {
  RSJ_CHECK_MSG(file->page_size() == options.page_size,
                "file page size must match tree options");
  RSJ_CHECK_MSG(capacity_ >= 2 * min_entries_,
                "min fill fraction too large for this page size");
}

RTree::RTree(PagedFile* file, const RTreeOptions& options)
    : RTree(file, options, kInvalidPageId, /*height=*/1, /*size=*/0) {
  root_ = file_->Allocate();
  WriteNode(file_, root_, /*level=*/0, {});
}

RTree RTree::Attach(PagedFile* file, const RTreeOptions& options, PageId root,
                    int height, size_t size) {
  RSJ_CHECK_MSG(root < file->allocated_pages(),
                "stored root page is outside the file");
  return RTree(file, options, root, height, size);
}

void RTree::Insert(const Rect& rect, uint32_t object_id) {
  RSJ_CHECK_MSG(rect.IsValid(), "cannot insert an invalid rectangle");
  InvalidateProfile();
  overflow_handled_.assign(static_cast<size_t>(height_), false);
  InsertAtLevel(Entry{rect, object_id}, /*target_level=*/0);
  ++size_;
}

void RTree::InsertAtLevel(const Entry& entry, int target_level) {
  RSJ_CHECK(target_level < height_);
  PlaceEntry(DescendPath(entry.rect, target_level), entry);
}

std::vector<PageId> RTree::DescendPath(const Rect& rect,
                                       int target_level) const {
  std::vector<PageId> path{root_};
  NodeView node = ViewNode(*file_, root_);
  while (node.level > target_level) {
    const PageId child = node.entries.ref[ChooseSubtree(node, rect)];
    path.push_back(child);
    node = ViewNode(*file_, child);
  }
  RSJ_CHECK(node.level == target_level);
  return path;
}

uint32_t RTree::ChooseSubtree(const NodeView& node, const Rect& rect) const {
  RSJ_CHECK(!node.is_leaf());
  RSJ_CHECK(node.size() > 0);
  const EntryColumns& entries = node.entries;

  // R*: at the level above the leaves, choose the entry whose rectangle
  // needs the least *overlap enlargement* w.r.t. its siblings; the exact
  // computation is restricted to the least-area-enlargement candidates.
  if (options_.split_policy == SplitPolicy::kRStar && node.level == 1) {
    return static_cast<uint32_t>(ChooseSubtreeRStar(
        entries.rects(), rect, options_.choose_subtree_candidates));
  }

  // All other levels/policies: least area enlargement, ties by least area.
  uint32_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < entries.size; ++i) {
    const Rect child = entries.rect(i);
    const double enlargement = child.Enlargement(rect);
    const double area = child.Area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best = i;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

void RTree::PlaceEntry(const std::vector<PageId>& path, const Entry& entry) {
  const NodeView node = ViewNode(*file_, path.back());
  const uint32_t slot = LowerXSlot(node, entry.rect.xl);
  if (node.size() < capacity_) {
    InsertEntry(file_, path.back(), slot, entry);
    GrowPathMbrs(path, entry.rect);
    return;
  }
  std::vector<Entry> entries = EntriesOf(node);
  entries.insert(entries.begin() + slot, entry);
  HandleOverflow(path, node.level, std::move(entries));
}

void RTree::HandleOverflow(std::vector<PageId> path, uint8_t level,
                           std::vector<Entry> entries) {
  const bool is_root = path.size() == 1;
  if (!is_root && options_.split_policy == SplitPolicy::kRStar &&
      options_.forced_reinsert && level < overflow_handled_.size() &&
      !overflow_handled_[level]) {
    overflow_handled_[level] = true;
    ReInsertEntries(std::move(path), level, std::move(entries));
    return;
  }
  SplitNode(std::move(path), level, std::move(entries));
}

void RTree::ReInsertEntries(std::vector<PageId> path, uint8_t level,
                            std::vector<Entry> entries) {
  Rect mbr = Rect::Empty();
  for (const Entry& e : entries) mbr = mbr.Union(e.rect);
  const Point center = mbr.Center();
  const Rect center_rect{center.x, center.y, center.x, center.y};
  const size_t n = entries.size();

  // Select the p entries farthest from the node's MBR center.
  std::vector<double> distance(n);
  for (size_t i = 0; i < n; ++i) {
    distance[i] = entries[i].rect.CenterDistance2(center_rect);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return distance[a] > distance[b];
  });
  size_t p = static_cast<size_t>(
      std::lround(options_.reinsert_fraction * static_cast<double>(n)));
  p = std::clamp<size_t>(p, 1, n - min_entries_);

  // `removed` keeps farthest-first order; the survivors keep their
  // original relative order (the node stays sorted by lower x).
  std::vector<Entry> removed;
  removed.reserve(p);
  std::vector<bool> is_removed(n, false);
  for (size_t i = 0; i < p; ++i) {
    removed.push_back(entries[order[i]]);
    is_removed[order[i]] = true;
  }
  std::vector<Entry> survivors;
  survivors.reserve(n - p);
  for (size_t i = 0; i < n; ++i) {
    if (!is_removed[i]) survivors.push_back(entries[i]);
  }

  WriteNode(file_, path.back(), level, survivors);
  UpdatePathMbrs(path, ViewNode(*file_, path.back()).ComputeMbr());

  // Close reinsert: re-insert starting with the entry nearest the center.
  for (size_t i = removed.size(); i-- > 0;) {
    InsertAtLevel(removed[i], level);
  }
}

SplitResult RTree::RunSplitPolicy(std::vector<Entry> entries) const {
  switch (options_.split_policy) {
    case SplitPolicy::kRStar:
      return SplitRStar(std::move(entries), min_entries_);
    case SplitPolicy::kQuadratic:
      return SplitQuadratic(std::move(entries), min_entries_);
    case SplitPolicy::kLinear:
      return SplitLinear(std::move(entries), min_entries_);
  }
  RSJ_CHECK_MSG(false, "unknown split policy");
  return {};
}

void RTree::SplitNode(std::vector<PageId> path, uint8_t level,
                      std::vector<Entry> entries) {
  const PageId left_page = path.back();
  SplitResult split = RunSplitPolicy(std::move(entries));

  // Both groups are stored sorted by lower x (free to choose, §4.2), so
  // freshly split nodes need no sorting work when the join reads them.
  const auto by_lower_x = [](const Entry& a, const Entry& b) {
    return a.rect.xl < b.rect.xl;
  };
  std::sort(split.left.begin(), split.left.end(), by_lower_x);
  std::sort(split.right.begin(), split.right.end(), by_lower_x);

  WriteNode(file_, left_page, level, split.left);
  const PageId right_page = file_->Allocate();
  WriteNode(file_, right_page, level, split.right);
  const Rect left_mbr = ViewNode(*file_, left_page).ComputeMbr();
  const Entry right_entry{ViewNode(*file_, right_page).ComputeMbr(),
                          right_page};

  if (path.size() == 1) {
    // Root split: the tree grows by one level.
    const PageId new_root = file_->Allocate();
    const Entry children[] = {Entry{left_mbr, left_page}, right_entry};
    WriteNode(file_, new_root, static_cast<uint8_t>(level + 1), children);
    root_ = new_root;
    ++height_;
    overflow_handled_.push_back(true);  // never reinsert at the root
    return;
  }

  path.pop_back();
  const PageId parent_page = path.back();
  const NodeView parent = ViewNode(*file_, parent_page);
  const uint32_t left_slot = ChildSlot(parent, left_page);
  if (parent.size() < capacity_) {
    SetEntryRect(file_, parent_page, left_slot, left_mbr);
    InsertEntry(file_, parent_page, LowerXSlot(parent, right_entry.rect.xl),
                right_entry);
    UpdatePathMbrs(path, ViewNode(*file_, parent_page).ComputeMbr());
    return;
  }
  // The parent overflows: its page keeps the stored entries until the
  // policy rewrites it.
  std::vector<Entry> grown = EntriesOf(parent);
  grown[left_slot].rect = left_mbr;
  const auto pos = std::lower_bound(grown.begin(), grown.end(), right_entry,
                                    by_lower_x);
  grown.insert(pos, right_entry);
  HandleOverflow(std::move(path), parent.level, std::move(grown));
}

void RTree::GrowPathMbrs(const std::vector<PageId>& path, const Rect& rect) {
  for (size_t i = path.size() - 1; i-- > 0;) {
    const NodeView parent = ViewNode(*file_, path[i]);
    const uint32_t slot = ChildSlot(parent, path[i + 1]);
    const Rect stored = parent.entries.rect(slot);
    if (HasZeroCoord(stored) || HasZeroCoord(rect)) {
      UpdatePathMbrs(std::span(path).first(i + 2),
                     ViewNode(*file_, path[i + 1]).ComputeMbr());
      return;
    }
    const Rect grown = stored.Union(rect);
    if (grown == stored) return;  // ancestors too
    SetEntryRect(file_, path[i], slot, grown);
  }
}

void RTree::UpdatePathMbrs(std::span<const PageId> path, Rect child_mbr) {
  if (path.size() < 2) return;
  for (size_t i = path.size() - 1; i-- > 0;) {
    const NodeView parent = ViewNode(*file_, path[i]);
    const uint32_t slot = ChildSlot(parent, path[i + 1]);
    if (parent.entries.rect(slot) == child_mbr) return;  // ancestors too
    SetEntryRect(file_, path[i], slot, child_mbr);
    child_mbr = parent.ComputeMbr();  // the view reads the edited page
  }
}

bool RTree::Delete(const Rect& rect, uint32_t object_id) {
  std::vector<PageId> path;
  if (!FindLeafPath(root_, rect, object_id, &path)) return false;
  InvalidateProfile();

  const NodeView leaf = ViewNode(*file_, path.back());
  uint32_t slot = 0;
  while (slot < leaf.size() &&
         !(leaf.entries.entry(slot) == Entry{rect, object_id})) {
    ++slot;
  }
  EraseEntry(file_, path.back(), slot);

  CondenseTree(path);
  --size_;
  return true;
}

bool RTree::FindLeafPath(PageId page, const Rect& rect, uint32_t object_id,
                         std::vector<PageId>* path) const {
  path->push_back(page);
  const NodeView node = ViewNode(*file_, page);
  for (uint32_t i = 0; i < node.size(); ++i) {
    const Entry e = node.entries.entry(i);
    if (node.is_leaf()) {
      if (e.rect == rect && e.ref == object_id) return true;
    } else if (e.rect.Contains(rect) &&
               FindLeafPath(e.ref, rect, object_id, path)) {
      // Parent rectangles are exact unions of their children, so a stored
      // data rectangle is exactly contained along its path.
      return true;
    }
  }
  path->pop_back();
  return false;
}

void RTree::CondenseTree(const std::vector<PageId>& path) {
  struct Orphan {
    int level;
    std::vector<Entry> entries;
  };
  std::vector<Orphan> orphans;

  for (size_t i = path.size(); i-- > 1;) {
    const NodeView node = ViewNode(*file_, path[i]);
    const NodeView parent = ViewNode(*file_, path[i - 1]);
    const uint32_t slot = ChildSlot(parent, path[i]);
    if (node.size() < min_entries_) {
      // Dissolve the under-full node; its entries are reinserted below.
      EraseEntry(file_, path[i - 1], slot);
      orphans.push_back(Orphan{node.level, EntriesOf(node)});
      file_->Free(path[i]);
    } else {
      const Rect mbr = node.ComputeMbr();
      if (!(parent.entries.rect(slot) == mbr)) {
        SetEntryRect(file_, path[i - 1], slot, mbr);
      }
    }
  }

  // Shrink the root while it is a directory node with a single child.
  // Done before reinsertion so reinserted entries see the tightest tree;
  // repeated afterwards since reinsertion may leave a degenerate root again.
  auto shrink_root = [this]() {
    NodeView root = ViewNode(*file_, root_);
    while (!root.is_leaf() && root.size() == 1) {
      const PageId old_root = root_;
      root_ = root.entries.ref[0];
      file_->Free(old_root);
      --height_;
      root = ViewNode(*file_, root_);
    }
  };
  shrink_root();

  // Reinsert orphaned entries at their original levels (deepest first).
  for (const Orphan& orphan : orphans) {
    for (const Entry& e : orphan.entries) {
      overflow_handled_.assign(static_cast<size_t>(height_), false);
      RSJ_CHECK_MSG(orphan.level < height_,
                    "orphan level exceeds tree height after condense");
      InsertAtLevel(e, orphan.level);
    }
  }
  shrink_root();
}

void RTree::WindowQuery(const Rect& window,
                        std::vector<uint32_t>* results) const {
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const NodeView node = ViewNode(*file_, stack.back());
    stack.pop_back();
    for (uint32_t i = 0; i < node.size(); ++i) {
      if (!node.entries.rect(i).Intersects(window)) continue;
      if (node.is_leaf()) {
        results->push_back(node.entries.ref[i]);
      } else {
        stack.push_back(node.entries.ref[i]);
      }
    }
  }
}

const TreeProfile& RTree::Profile() const {
  std::lock_guard<std::mutex> lock(profile_memo_->mu);
  std::optional<TreeProfile>& memo = profile_memo_->profile;
  if (memo.has_value()) return *memo;
  TreeProfile& profile = memo.emplace();
  profile.levels.resize(static_cast<size_t>(height_));
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    const NodeView node = ViewNode(*file_, page);
    if (page == root_) profile.root_mbr = node.ComputeMbr();
    RSJ_CHECK_MSG(node.level < profile.levels.size(),
                  "node level exceeds the tree height");
    LevelProfile& level = profile.levels[node.level];
    ++level.nodes;
    const EntryColumns& entries = node.entries;
    for (uint32_t i = 0; i < entries.size; ++i) {
      ++level.entries;
      level.mean_width += static_cast<double>(entries.xu[i]) - entries.xl[i];
      level.mean_height += static_cast<double>(entries.yu[i]) - entries.yl[i];
      if (!node.is_leaf()) stack.push_back(entries.ref[i]);
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

TreeStats RTree::ComputeStats() const {
  const TreeProfile& profile = Profile();
  TreeStats stats;
  stats.height = height_;
  stats.root_mbr = profile.root_mbr;
  stats.data_pages = profile.levels.front().nodes;
  stats.data_entries = profile.levels.front().entries;
  for (size_t level = 1; level < profile.levels.size(); ++level) {
    stats.dir_pages += profile.levels[level].nodes;
    stats.dir_entries += profile.levels[level].entries;
  }
  return stats;
}

}  // namespace rsj
