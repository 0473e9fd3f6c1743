// Sort-Tile-Recursive bulk loading (Leutenegger et al.), an extension that
// builds the shard layer's per-shard trees (shard/sharded_join.h) and the
// substrate ablation's packed trees: it produces near-100% utilized,
// low-overlap trees.
//
// Every ordering step is one stable key sort: an LSD radix sort over the
// order-preserving 32-bit image of a float key, so equal keys keep their
// input order (the whole level by x-center, each vertical slice by
// y-center on the x order, each cut node by lower x on the y order).
// Among distinct keys the order is exactly the `<` order of the keys.
// Every packed node, at every level, stores its entries in lower-x order,
// as insertion-built nodes do (RTree::PlaceEntry): the joins' sort on read
// (§4.2) then finds every page already sorted.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

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

// The order-preserving image of a float key: images compare as unsigned
// integers exactly as the keys compare under `<`. Non-negative floats get
// the sign bit set, negative ones every bit inverted; -0.0 is folded into
// +0.0 first so the two tie, as they do under `<`.
uint32_t KeyImage(float key) {
  if (key == 0.0f) key = 0.0f;
  const auto bits = std::bit_cast<uint32_t>(key);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

struct KeyedEntry {
  uint32_t key;
  Entry entry;
};

// Stably sorts `run` by `key_of(entry)` (a float): an LSD radix sort over
// the keys' images, one byte per pass, skipping a pass when every key has
// the same byte there. `scratch` must hold 2 * run.size() elements.
template <typename KeyOf>
void SortByKey(std::span<Entry> run, KeyOf key_of,
               std::vector<KeyedEntry>* scratch) {
  const size_t n = run.size();
  if (n < 2) return;
  RSJ_DCHECK(scratch->size() >= 2 * n);
  KeyedEntry* from = scratch->data();
  KeyedEntry* to = from + n;
  std::array<std::array<uint32_t, 256>, 4> counts{};
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = KeyImage(key_of(run[i]));
    from[i] = KeyedEntry{key, run[i]};
    for (size_t b = 0; b < 4; ++b) ++counts[b][(key >> (8 * b)) & 0xFFu];
  }
  for (size_t b = 0; b < 4; ++b) {
    std::array<uint32_t, 256>& next = counts[b];
    const unsigned shift = 8 * static_cast<unsigned>(b);
    if (next[(from[0].key >> shift) & 0xFFu] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& slot : next) offset += std::exchange(slot, offset);
    for (size_t i = 0; i < n; ++i) {
      to[next[(from[i].key >> shift) & 0xFFu]++] = from[i];
    }
    std::swap(from, to);
  }
  for (size_t i = 0; i < n; ++i) run[i] = from[i].entry;
}

// The keys, computed exactly as the comparators of a comparison sort
// would compute them.
float CenterX(const Entry& e) { return e.rect.Center().x; }
float CenterY(const Entry& e) { return e.rect.Center().y; }
float LowerX(const Entry& e) { return e.rect.xl; }

// Packs `entries` into nodes of ~`node_size` entries, slicing the plane
// into vertical runs sorted by x-center, then within each run by y-center;
// each node's entries end up in lower-x order. Reorders `entries` in place
// and returns the node sizes: node k holds the next sizes[k] entries.
// `scratch` is the key sort's buffer (2 * entries.size() elements).
std::vector<size_t> PackLevel(std::span<Entry> entries, size_t node_size,
                              size_t min_entries, size_t capacity,
                              std::vector<KeyedEntry>* scratch) {
  RSJ_CHECK(node_size >= 1);
  const size_t n = entries.size();
  const auto node_count =
      static_cast<size_t>(std::ceil(static_cast<double>(n) / node_size));
  const auto slice_count =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(node_count))));
  const size_t slice_size = slice_count * node_size;

  SortByKey(entries, CenterX, scratch);

  std::vector<size_t> nodes;
  nodes.reserve(node_count);
  // Slice boundaries are evened with the same rule so that a short tail
  // slice can never fall under the min-fill bound either.
  size_t start = 0;
  for (const size_t slice :
       ChunkSizes(n, slice_size, min_entries, /*capacity=*/SIZE_MAX)) {
    SortByKey(entries.subspan(start, slice), CenterY, scratch);
    size_t cursor = start;
    for (const size_t size :
         ChunkSizes(slice, node_size, min_entries, capacity)) {
      SortByKey(entries.subspan(cursor, size), LowerX, scratch);
      cursor += size;
      nodes.push_back(size);
    }
    start += slice;
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
  // The leaf level is the largest, so its buffer serves every sort.
  std::vector<KeyedEntry> scratch(2 * level_entries.size());
  uint8_t level = 0;
  // The pre-allocated empty root is reused for the final (root) node.
  while (true) {
    const std::vector<size_t> nodes = PackLevel(
        level_entries, node_size, min_entries_, capacity_, &scratch);
    if (nodes.size() == 1) {
      WriteNode(file_, root_, level, level_entries);
      height_ = level + 1;
      size_ = data_entries.size();
      return;
    }
    std::vector<Entry> parents;
    parents.reserve(nodes.size());
    const std::span<const Entry> packed(level_entries);
    size_t start = 0;
    for (const size_t size : nodes) {
      const PageId page = file_->Allocate();
      WriteNode(file_, page, level, packed.subspan(start, size));
      parents.push_back(Entry{ViewNode(*file_, page).ComputeMbr(), page});
      start += size;
    }
    level_entries = std::move(parents);
    ++level;
    RSJ_CHECK_MSG(level < 32, "runaway bulk load");
  }
}

}  // namespace rsj
