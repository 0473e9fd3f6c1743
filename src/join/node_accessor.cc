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

VisitedNode NodeAccessor::Visit(PageId id, size_t depth) {
  // Every node visit is a page request in the paper's model.
  const bool took_over = pages_->Take(tree_.file(), id, stats_);
  while (scratch_.size() <= depth) {
    scratch_.push_back(std::make_unique<Copies>());
  }
  Copies& copies = *scratch_[depth];
  VisitedNode visited{ViewNode(tree_.file(), id), {}};
  if (sort_on_read_) {
    visited.node =
        SortedByLowerX(visited.node, &copies.sorted,
                       took_over ? &stats_->sort_comparisons : nullptr);
  }
  visited.rects = visited.node.entries.rects();
  if (expansion_ > 0.0) {
    copies.expanded.AssignExpanded(visited.node.entries, expansion_);
    visited.rects = copies.expanded.columns().rects();
  }
  return visited;
}

void NodeAccessor::Pin(PageId id) { pages_->Pin(tree_.file(), id, stats_); }

void NodeAccessor::Unpin(PageId id) {
  pages_->Unpin(tree_.file(), id, stats_);
}

}  // namespace rsj
