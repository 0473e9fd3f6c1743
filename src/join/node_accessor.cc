#include "join/node_accessor.h"

namespace rsj {

NodeAccessor::NodeAccessor(const RTree& tree, PageCache* cache,
                           Statistics* stats, bool sort_on_read,
                           NodeCache* nodes, double expansion)
    : tree_(tree),
      pages_(cache),
      stats_(stats),
      sort_on_read_(sort_on_read),
      nodes_(nodes),
      expansion_(expansion) {}

const NodeAccessor::CachedNode& NodeAccessor::FetchCached(PageId id) {
  auto [it, inserted] = cache_.try_emplace(id);
  CachedNode& cached = it->second;
  if (!inserted) {
    // Repeat visit: the page request is still issued (every node visit is
    // a page request in the paper's model) but the node in hand is reused,
    // so the node cache is bypassed.
    if (!pages_->Read(tree_.file(), id, stats_)) {
      // Physical re-read: physically the page bytes are decoded (and, for
      // the sweep algorithms, re-sorted from scratch) again, so both costs
      // recur even though the in-memory node is reused. This matches the
      // node cache's decode-validity model (storage/node_cache.h).
      ++stats_->node_decodes;
      if (sort_on_read_) {
        stats_->sort_comparisons.Add(cached.first_sort_cost);
      }
    }
    return cached;
  }
  if (nodes_ != nullptr) {
    // Borrow the shared decode — its sorted form for the sweep algorithms,
    // whose comparisons this first visit charges.
    cached.shared = nodes_->Fetch(tree_.file(), id, stats_).decoded;
    if (sort_on_read_) {
      const DecodedNode::Sorted& sorted = cached.shared->sorted();
      cached.view = NodeView{sorted.node, sorted.block};
      cached.first_sort_cost = sorted.sort_cost;
    } else {
      cached.view = NodeView{&cached.shared->node, &cached.shared->block};
    }
    if (expansion_ > 0.0) {
      cached.block.AssignEntries(
          std::span<const Entry>(cached.view.node->entries), expansion_);
      cached.view.block = &cached.block;
    }
  } else {
    // No node cache: decode, sort and lay out this accessor's own copy.
    pages_->Read(tree_.file(), id, stats_);
    ++stats_->node_decodes;
    cached.node = Node::Load(tree_.file(), id);
    if (sort_on_read_) {
      cached.first_sort_cost = InsertionSortByLowerX(&cached.node.entries);
    }
    cached.block.AssignEntries(std::span<const Entry>(cached.node.entries),
                               expansion_);
    cached.view = NodeView{&cached.node, &cached.block};
  }
  if (sort_on_read_) stats_->sort_comparisons.Add(cached.first_sort_cost);
  return cached;
}

const Node& NodeAccessor::Fetch(PageId id) {
  return *FetchCached(id).view.node;
}

NodeView NodeAccessor::FetchView(PageId id) { return FetchCached(id).view; }

void NodeAccessor::Pin(PageId id) { pages_->Pin(tree_.file(), id, stats_); }

void NodeAccessor::Unpin(PageId id) {
  pages_->Unpin(tree_.file(), id, stats_);
}

}  // namespace rsj
