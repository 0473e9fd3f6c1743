#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace rsj {

namespace {

// Returns a pointer to the entry of `node` referencing child page `child`.
Entry* FindChildEntry(Node* node, PageId child) {
  for (Entry& e : node->entries) {
    if (e.ref == child) return &e;
  }
  RSJ_CHECK_MSG(false, "parent node lost the entry of its child page");
  return nullptr;
}

}  // namespace

RTree::RTree(PagedFile* file, const RTreeOptions& options)
    : file_(file),
      options_(options),
      capacity_(NodeCapacity(options.page_size)),
      min_entries_(std::max<uint32_t>(
          2, static_cast<uint32_t>(options.min_fill_fraction *
                                   NodeCapacity(options.page_size)))),
      root_(kInvalidPageId),
      height_(1) {
  RSJ_CHECK_MSG(file->page_size() == options.page_size,
                "file page size must match tree options");
  RSJ_CHECK_MSG(capacity_ >= 2 * min_entries_,
                "min fill fraction too large for this page size");
  root_ = file_->Allocate();
  Node empty_leaf;
  empty_leaf.Store(file_, root_);
}

RTree RTree::Attach(PagedFile* file, const RTreeOptions& options, PageId root,
                    int height, size_t size) {
  RTree tree(file, options);
  // Release the freshly allocated empty root and adopt the stored state.
  file->Free(tree.root_);
  tree.root_ = root;
  tree.height_ = height;
  tree.size_ = size;
  RSJ_CHECK_MSG(root < file->allocated_pages(),
                "stored root page is outside the file");
  return tree;
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
  Node target;
  std::vector<PageId> path = DescendPath(entry.rect, target_level, &target);
  PlaceEntry(path, std::move(target), entry);
}

std::vector<PageId> RTree::DescendPath(const Rect& rect, int target_level,
                                       Node* target) const {
  std::vector<PageId> path{root_};
  Node node = Node::Load(*file_, root_);
  while (node.level > target_level) {
    const size_t child_index = ChooseSubtree(node, rect);
    const PageId child = node.entries[child_index].ref;
    path.push_back(child);
    node = Node::Load(*file_, child);
  }
  RSJ_CHECK(node.level == target_level);
  *target = std::move(node);
  return path;
}

size_t RTree::ChooseSubtree(const Node& node, const Rect& rect) const {
  RSJ_CHECK(!node.is_leaf());
  RSJ_CHECK(!node.entries.empty());
  const size_t n = node.entries.size();

  // R*: at the level above the leaves, choose the entry whose rectangle
  // needs the least *overlap enlargement* w.r.t. its siblings; the exact
  // computation is restricted to the least-area-enlargement candidates.
  if (options_.split_policy == SplitPolicy::kRStar && node.level == 1) {
    return ChooseSubtreeRStar(node.entries, rect,
                              options_.choose_subtree_candidates);
  }

  // All other levels/policies: least area enlargement, ties by least area.
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double enlargement = node.entries[i].rect.Enlargement(rect);
    const double area = node.entries[i].rect.Area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best = i;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

void RTree::PlaceEntry(const std::vector<PageId>& path, Node node,
                       const Entry& entry) {
  // Keep node entries ordered by their rectangles' lower x coordinate.
  // The order inside a node is semantically free; keeping it (nearly)
  // sorted makes the joins' sort-page-on-read step cheap, the option §4.2
  // of the paper explicitly suggests.
  auto pos = std::lower_bound(node.entries.begin(), node.entries.end(),
                              entry, [](const Entry& a, const Entry& b) {
                                return a.rect.xl < b.rect.xl;
                              });
  node.entries.insert(pos, entry);
  if (node.entries.size() <= capacity_) {
    node.Store(file_, path.back());
    UpdatePathMbrs(path, node.ComputeMbr());
    return;
  }
  HandleOverflow(path, std::move(node));
}

void RTree::HandleOverflow(std::vector<PageId> path, Node node) {
  const bool is_root = path.size() == 1;
  const auto level = static_cast<size_t>(node.level);
  if (!is_root && options_.split_policy == SplitPolicy::kRStar &&
      options_.forced_reinsert && level < overflow_handled_.size() &&
      !overflow_handled_[level]) {
    overflow_handled_[level] = true;
    ReInsertEntries(std::move(path), std::move(node));
    return;
  }
  SplitNode(std::move(path), std::move(node));
}

void RTree::ReInsertEntries(std::vector<PageId> path, Node node) {
  const Point center = node.ComputeMbr().Center();
  const Rect center_rect{center.x, center.y, center.x, center.y};
  const size_t n = node.entries.size();

  // Select the p entries farthest from the node's MBR center.
  std::vector<double> distance(n);
  for (size_t i = 0; i < n; ++i) {
    distance[i] = node.entries[i].rect.CenterDistance2(center_rect);
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
    removed.push_back(node.entries[order[i]]);
    is_removed[order[i]] = true;
  }
  std::vector<Entry> survivors;
  survivors.reserve(n - p);
  for (size_t i = 0; i < n; ++i) {
    if (!is_removed[i]) survivors.push_back(node.entries[i]);
  }
  node.entries = std::move(survivors);

  const int level = node.level;
  node.Store(file_, path.back());
  UpdatePathMbrs(path, node.ComputeMbr());

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

void RTree::SplitNode(std::vector<PageId> path, Node node) {
  const PageId left_page = path.back();
  SplitResult split = RunSplitPolicy(std::move(node.entries));

  // Both groups are stored sorted by lower x (free to choose, §4.2), so
  // freshly split nodes need no sorting work when the join reads them.
  const auto by_lower_x = [](const Entry& a, const Entry& b) {
    return a.rect.xl < b.rect.xl;
  };
  std::sort(split.left.begin(), split.left.end(), by_lower_x);
  std::sort(split.right.begin(), split.right.end(), by_lower_x);

  Node left;
  left.level = node.level;
  left.entries = std::move(split.left);
  left.Store(file_, left_page);

  const PageId right_page = file_->Allocate();
  Node right;
  right.level = node.level;
  right.entries = std::move(split.right);
  right.Store(file_, right_page);

  if (path.size() == 1) {
    // Root split: the tree grows by one level.
    const PageId new_root = file_->Allocate();
    Node root;
    root.level = static_cast<uint8_t>(node.level + 1);
    root.entries = {Entry{left.ComputeMbr(), left_page},
                    Entry{right.ComputeMbr(), right_page}};
    root.Store(file_, new_root);
    root_ = new_root;
    ++height_;
    overflow_handled_.push_back(true);  // never reinsert at the root
    return;
  }

  path.pop_back();
  Node parent = Node::Load(*file_, path.back());
  FindChildEntry(&parent, left_page)->rect = left.ComputeMbr();
  const Entry right_entry{right.ComputeMbr(), right_page};
  auto pos = std::lower_bound(parent.entries.begin(), parent.entries.end(),
                              right_entry,
                              [](const Entry& a, const Entry& b) {
                                return a.rect.xl < b.rect.xl;
                              });
  parent.entries.insert(pos, right_entry);
  if (parent.entries.size() <= capacity_) {
    parent.Store(file_, path.back());
    UpdatePathMbrs(path, parent.ComputeMbr());
    return;
  }
  HandleOverflow(std::move(path), std::move(parent));
}

void RTree::UpdatePathMbrs(const std::vector<PageId>& path, Rect child_mbr) {
  if (path.size() < 2) return;
  for (size_t i = path.size() - 1; i-- > 0;) {
    Node parent = Node::Load(*file_, path[i]);
    Entry* e = FindChildEntry(&parent, path[i + 1]);
    if (e->rect == child_mbr) return;  // ancestors are unchanged as well
    e->rect = child_mbr;
    parent.Store(file_, path[i]);
    child_mbr = parent.ComputeMbr();
  }
}

bool RTree::Delete(const Rect& rect, uint32_t object_id) {
  std::vector<PageId> path;
  if (!FindLeafPath(root_, rect, object_id, &path)) return false;
  InvalidateProfile();

  Node leaf = Node::Load(*file_, path.back());
  auto it = std::find(leaf.entries.begin(), leaf.entries.end(),
                      Entry{rect, object_id});
  RSJ_CHECK(it != leaf.entries.end());
  leaf.entries.erase(it);
  leaf.Store(file_, path.back());

  CondenseTree(path);
  --size_;
  return true;
}

bool RTree::FindLeafPath(PageId page, const Rect& rect, uint32_t object_id,
                         std::vector<PageId>* path) const {
  path->push_back(page);
  const Node node = Node::Load(*file_, page);
  if (node.is_leaf()) {
    for (const Entry& e : node.entries) {
      if (e.rect == rect && e.ref == object_id) return true;
    }
  } else {
    for (const Entry& e : node.entries) {
      // Parent rectangles are exact unions of their children, so a stored
      // data rectangle is exactly contained along its path.
      if (e.rect.Contains(rect) &&
          FindLeafPath(e.ref, rect, object_id, path)) {
        return true;
      }
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
    Node node = Node::Load(*file_, path[i]);
    Node parent = Node::Load(*file_, path[i - 1]);
    if (node.entries.size() < min_entries_) {
      // Dissolve the under-full node; its entries are reinserted below.
      auto it = std::find_if(
          parent.entries.begin(), parent.entries.end(),
          [&](const Entry& e) { return e.ref == path[i]; });
      RSJ_CHECK(it != parent.entries.end());
      parent.entries.erase(it);
      parent.Store(file_, path[i - 1]);
      orphans.push_back(Orphan{node.level, std::move(node.entries)});
      file_->Free(path[i]);
    } else {
      Entry* e = FindChildEntry(&parent, path[i]);
      const Rect mbr = node.ComputeMbr();
      if (!(e->rect == mbr)) {
        e->rect = mbr;
        parent.Store(file_, path[i - 1]);
      }
    }
  }

  // Shrink the root while it is a directory node with a single child.
  // Done before reinsertion so reinserted entries see the tightest tree;
  // repeated afterwards since reinsertion may leave a degenerate root again.
  auto shrink_root = [this]() {
    Node root = Node::Load(*file_, root_);
    while (!root.is_leaf() && root.entries.size() == 1) {
      const PageId old_root = root_;
      root_ = root.entries[0].ref;
      file_->Free(old_root);
      --height_;
      root = Node::Load(*file_, root_);
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
    const PageId page = stack.back();
    stack.pop_back();
    const Node node = Node::Load(*file_, page);
    for (const Entry& e : node.entries) {
      if (!e.rect.Intersects(window)) continue;
      if (node.is_leaf()) {
        results->push_back(e.ref);
      } else {
        stack.push_back(e.ref);
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
    const Node node = Node::Load(*file_, page);
    if (page == root_) profile.root_mbr = node.ComputeMbr();
    RSJ_CHECK_MSG(node.level < profile.levels.size(),
                  "node level exceeds the tree height");
    LevelProfile& level = profile.levels[node.level];
    ++level.nodes;
    for (const Entry& e : node.entries) {
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
