// Node split algorithms for the R-tree family.
//
// The R*-split (§3.2 of the paper, after Beckmann et al. 1990) first picks
// the split axis by minimizing the summed margins over all allowed
// distributions of both sortings (by lower and by upper coordinate), then
// picks the distribution on that axis with minimal overlap between the two
// resulting bounding rectangles (ties: minimal combined area).
//
// Guttman's quadratic and linear splits are provided as the original R-tree
// baselines used in the ablation benchmarks.
//
// The R* ChooseSubtree rule of the level above the leaves lives here too:
// like the split, it is a pure function of one node's entries. A split
// takes the M + 1 entries of an overflowing node as a vector it may
// reorder; ChooseSubtree reads a node's rectangles on its page, as the
// columns the page stores (rtree/node.h).

#ifndef RSJ_RTREE_SPLIT_H_
#define RSJ_RTREE_SPLIT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect_block.h"
#include "rtree/entry.h"

namespace rsj {

struct SplitResult {
  std::vector<Entry> left;
  std::vector<Entry> right;
};

// R*-tree split. `entries` must contain capacity+1 elements; each output
// group receives between `min_entries` and entries.size() - min_entries
// elements.
SplitResult SplitRStar(std::vector<Entry> entries, uint32_t min_entries);

// Guttman's quadratic split (PickSeeds by maximal dead area, PickNext by
// maximal preference difference, with a min-fill safeguard).
SplitResult SplitQuadratic(std::vector<Entry> entries, uint32_t min_entries);

// Guttman's linear split (seeds by maximal normalized separation, remaining
// entries assigned by minimal enlargement, with a min-fill safeguard).
SplitResult SplitLinear(std::vector<Entry> entries, uint32_t min_entries);

// R*-tree ChooseSubtree for a node whose children are leaves: the position
// of the child rectangle in `children` that needs the least overlap
// enlargement (summed over its siblings) to cover `rect`; ties go to the
// least area enlargement, then the least area, then the first in
// candidate order. When 0 < `candidates` < children.size ("past the
// cut"), only the `candidates` children of least area enlargement are
// evaluated, in std::partial_sort's order. `children` must not be empty,
// and their coordinates and `rect`'s must be finite.
//
// The result is that definition's bit for bit, but partial_sort runs only
// where its order among equal enlargements could decide. One pass over
// the columns computes every child's enlargement (Rect::Enlargement's
// double expressions) and counts the children that hold `rect`; then one
// of three paths chooses:
//  - Holder path. A holder grows to itself, so its key (overlap sum,
//    enlargement, area) is (+0.0, 0, area), the least there is. When the
//    holders are exactly the children of zero enlargement and at most
//    `candidates` of them (so all are candidates), the least-area holder
//    wins; below the cut an area tie goes to the lowest slot, the first
//    in slot order.
//  - Selection path (past the cut, no holder). When the `candidates`-th
//    least enlargement is strictly below the next one, the candidate set
//    is the same in any order. nth_element on the values finds it, and
//    the candidates are evaluated least enlargement first, then in slot
//    order. Their order could decide only between two candidates of one
//    whole key, and the evaluation reports that.
//  - Sorted path: the definition itself, every child in slot order below
//    the cut and partial_sort's pick past it. It runs below the cut when
//    no child holds `rect`, and wherever the paths above are not exact: a
//    child of zero enlargement that does not hold `rect` (its overlap sum
//    may be positive), and past the cut equal enlargements at the cut,
//    more than `candidates` holders, two least-area holders, or a second
//    candidate with the selection's winning key.
size_t ChooseSubtreeRStar(const RectColumns& children, const Rect& rect,
                          uint32_t candidates);

}  // namespace rsj

#endif  // RSJ_RTREE_SPLIT_H_
