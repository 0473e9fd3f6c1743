// Exact segment/polyline geometry for the refinement step.
//
// The paper's join hierarchy (§2.1) distinguishes the MBR-spatial-join
// (filter step) from the ID-spatial-join, which additionally verifies that
// the *exact* objects intersect (refinement step). The evaluated data are
// TIGER/Line chains, i.e. polylines, so refinement means polyline/polyline
// intersection. This module provides robust-orientation segment tests in
// double precision. The polyline test is one loop over segment pairs (an
// MBR reject, then the orientation tests), sized for the short chains the
// generated data holds; it keeps no scratch state.

#ifndef RSJ_GEOM_SEGMENT_H_
#define RSJ_GEOM_SEGMENT_H_

#include <span>

#include "geom/rect.h"

namespace rsj {

// A line segment between two points.
struct Segment {
  Point a;
  Point b;

  // Minimum bounding rectangle of the segment.
  Rect Mbr() const { return Rect::BoundingBox(a, b); }
};

// Sign of the orientation of the triangle (a, b, c):
// +1 counter-clockwise, -1 clockwise, 0 collinear. Double precision.
int Orientation(const Point& a, const Point& b, const Point& c);

// True when point `p` lies on segment `s` (inclusive of endpoints).
bool PointOnSegment(const Point& p, const Segment& s);

// True when the two closed segments share at least one point. Handles all
// degenerate configurations (collinear overlap, shared endpoints, zero
// length segments).
bool SegmentsIntersect(const Segment& s, const Segment& t);

// True when the two polylines (vertex chains) share at least one point.
// A polyline with a single vertex is treated as a point.
bool PolylinesIntersect(std::span<const Point> a, std::span<const Point> b);

// Minimum bounding rectangle of a non-empty vertex chain.
Rect PolylineMbr(std::span<const Point> chain);

}  // namespace rsj

#endif  // RSJ_GEOM_SEGMENT_H_
