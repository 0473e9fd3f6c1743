#include "storage/node_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "geom/comparison_counter.h"

namespace rsj {

uint64_t InsertionSortByLowerX(std::vector<Entry>* entries) {
  ComparisonCounter cost;
  for (size_t i = 1; i < entries->size(); ++i) {
    Entry pending = (*entries)[i];
    size_t j = i;
    while (j > 0) {
      cost.Add(1);
      if (!(pending.rect.xl < (*entries)[j - 1].rect.xl)) break;
      (*entries)[j] = (*entries)[j - 1];
      --j;
    }
    (*entries)[j] = pending;
  }
  return cost.count();
}

const DecodedNode::Sorted& DecodedNode::sorted() const {
  std::call_once(sorted_once_, [this] {
    const std::vector<Entry>& entries = node.entries;
    const auto by_xl = [](const Entry& a, const Entry& b) {
      return a.rect.xl < b.rect.xl;
    };
    if (std::is_sorted(entries.begin(), entries.end(), by_xl)) {
      // The sort would move nothing and charge one comparison per entry
      // after the first.
      sorted_ = Sorted{&node, &block,
                       entries.empty() ? 0 : entries.size() - 1};
      return;
    }
    copy_ = std::make_unique<SortedCopy>(SortedCopy{node, RectBlock{}});
    const uint64_t cost = InsertionSortByLowerX(&copy_->node.entries);
    copy_->block.AssignEntries(std::span<const Entry>(copy_->node.entries),
                               0.0);
    sorted_ = Sorted{&copy_->node, &copy_->block, cost};
  });
  return sorted_;
}

NodeCache::NodeCache(PageCache* pages, const Options& options)
    : pages_(pages), capacity_nodes_(options.capacity_nodes) {
  RSJ_CHECK_MSG(pages != nullptr, "node cache needs a page layer");
  RSJ_CHECK_MSG(options.capacity_nodes != 0, "zero-capacity node cache");
  RSJ_CHECK_MSG(options.shard_count != 0, "zero-shard node cache");
  // Distribute the node budget round-robin, like the shared pool's frames;
  // every shard keeps at least one node so hot pages never thrash.
  shards_.reserve(options.shard_count);
  for (size_t i = 0; i < options.shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity =
        std::max<size_t>(1, capacity_nodes_ / options.shard_count +
                                (i < capacity_nodes_ % options.shard_count));
    shards_.push_back(std::move(shard));
  }
}

NodeCache::FetchResult NodeCache::Fetch(const PagedFile& file, PageId id,
                                        Statistics* stats) {
  FetchResult result;
  // The page request comes first so the I/O counters are exactly what they
  // would be without this layer.
  result.page_hit = pages_->Read(file, id, stats);

  const PageKey key{&file, id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.nodes.find(key);
  if (it != shard.nodes.end() && result.page_hit) {
    ++stats->node_cache_hits;
    shard.order.splice(shard.order.begin(), shard.order,
                       it->second.position);
    result.decoded = it->second.node;
    return result;
  }

  // First sight, node eviction, or a physical re-read (the in-memory
  // decode no longer corresponds to a resident page): decode from the page
  // bytes, charged to the requesting actor.
  ++stats->node_decodes;
  auto node = std::make_shared<const DecodedNode>(Node::Load(file, id));
  if (it != shard.nodes.end()) {
    it->second.node = node;
    shard.order.splice(shard.order.begin(), shard.order, it->second.position);
  } else {
    shard.order.push_front(key);
    shard.nodes.emplace(key, CacheEntry{node, shard.order.begin()});
    while (shard.nodes.size() > shard.capacity) {
      shard.nodes.erase(shard.order.back());
      shard.order.pop_back();
    }
  }
  result.decoded = std::move(node);
  return result;
}

void NodeCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->nodes.clear();
    shard->order.clear();
  }
}

size_t NodeCache::node_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->nodes.size();
  }
  return total;
}

}  // namespace rsj
