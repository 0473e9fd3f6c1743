// Multi-way spatial joins — §2.1: "if we consider more than two spatial
// relations for processing a join. The problem ... is similarly defined and
// its solution can make use of the techniques that will be presented".
//
// The chain join
//
//     R1 ⋈ R2 ⋈ ... ⋈ Rn   with   Mbr(a_i) ∩ Mbr(a_{i+1}) ≠ ∅
//
// uses exactly those techniques: the first two relations run through the
// synchronized-traversal engine (SJ4 by default), and every further
// relation is probed with the windows of the current tuples' last
// elements. The chain executor (exec/multiway_executor.h) runs the join at
// every thread count, RunChainSpatialJoin included; each probe phase is a
// `WindowProbe` (join/window_probe.h), which answers a batch of windows in
// one descent of the relation's R*-tree. This header holds a chain's
// relations.

#ifndef RSJ_JOIN_MULTIWAY_JOIN_H_
#define RSJ_JOIN_MULTIWAY_JOIN_H_

#include <vector>

#include "geom/rect.h"
#include "rtree/rtree.h"

namespace rsj {

// One relation of a multi-way join: the index plus the rectangles backing
// the object ids stored in it (needed to seed the probe windows).
struct JoinRelation {
  const RTree* tree = nullptr;
  const std::vector<Rect>* rects = nullptr;
};

}  // namespace rsj

#endif  // RSJ_JOIN_MULTIWAY_JOIN_H_
