#include "storage/decoded_node.h"

#include <algorithm>

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

}  // namespace rsj
