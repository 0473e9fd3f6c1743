#include "join/node_accessor.h"

namespace rsj {

NodeAccessor::NodeAccessor(const RTree& tree, BufferPool* pool,
                           Statistics* stats, bool sort_on_read,
                           double expansion)
    : tree_(tree),
      pages_(pool),
      stats_(stats),
      sort_on_read_(sort_on_read),
      expansion_(expansion) {}

const NodeAccessor::CachedNode& NodeAccessor::FetchCached(PageId id) {
  auto [it, inserted] = cache_.try_emplace(id);
  CachedNode& cached = it->second;
  if (!inserted) {
    // Repeat visit: the page request is still issued (every node visit is
    // a page request in the paper's model) but the node in hand is reused.
    bool undecoded = false;
    pages_->Read(tree_.file(), id, stats_, cached.decoded, &undecoded);
    if (undecoded) {
      // The request found the page without a decode (a miss, a frame a
      // prefetch landed, a page Pin read): physically its bytes are
      // decoded (and, for the sweep algorithms, sorted from scratch) again,
      // so both costs recur even though the in-memory node is reused. The
      // page keeps that decode, so the next reader to fetch it shares it.
      ++stats_->node_decodes;
      if (sort_on_read_) stats_->sort_comparisons.Add(cached.sort_cost);
    }
    return cached;
  }
  // Borrow the pool's decode — its sorted form for the sweep algorithms,
  // whose comparisons only the fetch that decoded the page charges.
  FetchedNode fetched = pages_->Fetch(tree_.file(), id, stats_);
  cached.decoded = std::move(fetched.decoded);
  if (sort_on_read_) {
    const DecodedNode::Sorted& sorted = cached.decoded->sorted();
    cached.view = NodeView{sorted.node, sorted.block};
    cached.sort_cost = sorted.sort_cost;
    if (fetched.fresh) stats_->sort_comparisons.Add(sorted.sort_cost);
  } else {
    cached.view = NodeView{&cached.decoded->node, &cached.decoded->block};
  }
  if (expansion_ > 0.0) {
    cached.block.AssignEntries(
        std::span<const Entry>(cached.view.node->entries), expansion_);
    cached.view.block = &cached.block;
  }
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
