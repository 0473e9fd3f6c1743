// Sort-Tile-Recursive bulk loading (Leutenegger et al.), an extension used
// by the substrate ablation benchmark: it produces near-100% utilized,
// low-overlap trees, isolating how much the join results depend on the
// insertion-built R*-tree the paper uses.

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "rtree/rtree.h"

namespace rsj {

namespace {

// Sizes of the chunks a run of `count` entries is cut into: as many
// `node_size` chunks as possible, but evened out so that no chunk falls
// under `min_entries` (the R-tree min-fill invariant) or over `capacity`.
std::vector<size_t> ChunkSizes(size_t count, size_t node_size,
                               size_t min_entries, size_t capacity) {
  auto chunks = static_cast<size_t>(
      std::ceil(static_cast<double>(count) / static_cast<double>(node_size)));
  if (chunks == 0) return {};
  while (chunks > 1 && count / chunks < min_entries) --chunks;
  const size_t base = count / chunks;
  const size_t remainder = count % chunks;
  RSJ_CHECK_MSG(chunks == 1 || base + (remainder > 0 ? 1 : 0) <= capacity,
                "STR chunking cannot satisfy fill bounds");
  std::vector<size_t> sizes(chunks, base);
  for (size_t i = 0; i < remainder; ++i) ++sizes[i];
  return sizes;
}

// Packs `entries` into nodes of ~`node_size` entries, slicing the plane
// into vertical runs sorted by x-center, then within each run by y-center.
std::vector<Node> PackLevel(std::vector<Entry> entries, uint8_t level,
                            size_t node_size, size_t min_entries,
                            size_t capacity) {
  RSJ_CHECK(node_size >= 1);
  const size_t n = entries.size();
  const auto node_count =
      static_cast<size_t>(std::ceil(static_cast<double>(n) / node_size));
  const auto slice_count =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(node_count))));
  const size_t slice_size = slice_count * node_size;

  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.rect.Center().x < b.rect.Center().x;
  });

  std::vector<Node> nodes;
  nodes.reserve(node_count);
  // Slice boundaries are evened with the same rule so that a short tail
  // slice can never fall under the min-fill bound either.
  size_t start = 0;
  for (const size_t slice :
       ChunkSizes(n, slice_size, min_entries, /*capacity=*/SIZE_MAX)) {
    const size_t end = start + slice;
    std::sort(entries.begin() + static_cast<ptrdiff_t>(start),
              entries.begin() + static_cast<ptrdiff_t>(end),
              [](const Entry& a, const Entry& b) {
                return a.rect.Center().y < b.rect.Center().y;
              });
    size_t cursor = start;
    for (const size_t size :
         ChunkSizes(slice, node_size, min_entries, capacity)) {
      Node node;
      node.level = level;
      node.entries.assign(entries.begin() + static_cast<ptrdiff_t>(cursor),
                          entries.begin() +
                              static_cast<ptrdiff_t>(cursor + size));
      cursor += size;
      nodes.push_back(std::move(node));
    }
    start = end;
  }
  return nodes;
}

}  // namespace

void RTree::BulkLoadStr(std::span<const Entry> data_entries,
                        double fill_fraction) {
  RSJ_CHECK_MSG(size_ == 0, "BulkLoadStr requires an empty tree");
  RSJ_CHECK(fill_fraction > 0.0 && fill_fraction <= 1.0);
  if (data_entries.empty()) return;
  InvalidateProfile();

  const size_t node_size = std::clamp<size_t>(
      static_cast<size_t>(fill_fraction * capacity_), min_entries_, capacity_);

  std::vector<Entry> level_entries(data_entries.begin(), data_entries.end());
  uint8_t level = 0;
  // The pre-allocated empty root is reused for the final (root) node.
  while (true) {
    std::vector<Node> nodes = PackLevel(std::move(level_entries), level,
                                        node_size, min_entries_, capacity_);
    if (nodes.size() == 1) {
      nodes[0].Store(file_, root_);
      height_ = level + 1;
      size_ = data_entries.size();
      return;
    }
    level_entries.clear();
    level_entries.reserve(nodes.size());
    for (const Node& node : nodes) {
      const PageId page = file_->Allocate();
      node.Store(file_, page);
      level_entries.push_back(Entry{node.ComputeMbr(), page});
    }
    ++level;
    RSJ_CHECK_MSG(level < 32, "runaway bulk load");
  }
}

}  // namespace rsj
