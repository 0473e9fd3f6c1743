// Rectilinear rectangles — the data type every layer of the system shares.
//
// Coordinates are 32-bit floats so that an R-tree entry (rectangle + child
// reference) occupies exactly 20 bytes, which reproduces the node capacities
// of the paper's Table 1 (M = 51/102/204/409 for 1/2/4/8 KByte pages).
// Derived quantities (areas, margins) are computed in double precision.

#ifndef RSJ_GEOM_RECT_H_
#define RSJ_GEOM_RECT_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "geom/comparison_counter.h"

namespace rsj {

// Coordinate type of all stored geometry.
using Coord = float;

// A point in the two-dimensional data space.
struct Point {
  Coord x = 0;
  Coord y = 0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

// A closed rectilinear rectangle [xl, xu] x [yl, yu].
//
// Rectangles are closed sets: two rectangles that merely touch at an edge or
// a corner intersect, matching the paper's definition of the MBR-spatial-join
// (Mbr(a) ∩ Mbr(b) ≠ ∅). Degenerate rectangles (points, segments) are valid.
struct Rect {
  Coord xl = 0;
  Coord yl = 0;
  Coord xu = 0;
  Coord yu = 0;

  // An "empty" rectangle: inverted bounds so that ExpandToInclude() of any
  // real rectangle yields that rectangle. Empty() intersects nothing.
  static Rect Empty() {
    constexpr Coord kLo = std::numeric_limits<Coord>::lowest();
    constexpr Coord kHi = std::numeric_limits<Coord>::max();
    return Rect{kHi, kHi, kLo, kLo};
  }

  // Builds the minimum bounding rectangle of two points.
  static Rect BoundingBox(const Point& a, const Point& b) {
    return Rect{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                std::max(a.y, b.y)};
  }

  // True when the bounds are finite and non-inverted (degenerate extents
  // allowed). NaN and infinite coordinates are invalid: they make areas
  // and enlargements NaN (inf - inf).
  bool IsValid() const {
    constexpr Coord kLo = std::numeric_limits<Coord>::lowest();
    constexpr Coord kHi = std::numeric_limits<Coord>::max();
    return kLo <= xl && xl <= xu && xu <= kHi && kLo <= yl && yl <= yu &&
           yu <= kHi;
  }

  // True for the inverted sentinel produced by Empty().
  bool IsEmpty() const { return xl > xu || yl > yu; }

  // Closed-set intersection predicate (uncounted fast path).
  bool Intersects(const Rect& o) const {
    return xl <= o.xu && o.xl <= xu && yl <= o.yu && o.yl <= yu;
  }

  // Intersection predicate that charges each executed floating point
  // comparison to `counter`, exactly as the paper counts CPU cost: four
  // comparisons when the rectangles intersect, an early exit otherwise.
  bool IntersectsCounted(const Rect& o, ComparisonCounter* counter) const {
    counter->Add(1);
    if (xl > o.xu) return false;
    counter->Add(1);
    if (o.xl > xu) return false;
    counter->Add(1);
    if (yl > o.yu) return false;
    counter->Add(1);
    if (o.yl > yu) return false;
    return true;
  }

  // True when `o` lies fully inside this rectangle (closed semantics).
  bool Contains(const Rect& o) const {
    return xl <= o.xl && o.xu <= xu && yl <= o.yl && o.yu <= yu;
  }

  // Containment predicate with paper-style comparison accounting: four
  // comparisons when `o` is contained, early exit otherwise.
  bool ContainsCounted(const Rect& o, ComparisonCounter* counter) const {
    counter->Add(1);
    if (xl > o.xl) return false;
    counter->Add(1);
    if (o.xu > xu) return false;
    counter->Add(1);
    if (yl > o.yl) return false;
    counter->Add(1);
    if (o.yu > yu) return false;
    return true;
  }

  // Squared minimum Euclidean distance between the two rectangles
  // (zero when they intersect).
  double MinDist2(const Rect& o) const {
    double dx = 0.0;
    if (o.xu < xl) {
      dx = static_cast<double>(xl) - o.xu;
    } else if (xu < o.xl) {
      dx = static_cast<double>(o.xl) - xu;
    }
    double dy = 0.0;
    if (o.yu < yl) {
      dy = static_cast<double>(yl) - o.yu;
    } else if (yu < o.yl) {
      dy = static_cast<double>(o.yl) - yu;
    }
    return dx * dx + dy * dy;
  }

  // This rectangle grown by `margin` on every side.
  Rect Expanded(double margin) const {
    return Rect{static_cast<Coord>(xl - margin),
                static_cast<Coord>(yl - margin),
                static_cast<Coord>(xu + margin),
                static_cast<Coord>(yu + margin)};
  }

  // True when point `p` lies inside this rectangle (closed semantics).
  bool Contains(const Point& p) const {
    return xl <= p.x && p.x <= xu && yl <= p.y && p.y <= yu;
  }

  // The geometric intersection. Only meaningful when Intersects(o).
  Rect Intersection(const Rect& o) const {
    return Rect{std::max(xl, o.xl), std::max(yl, o.yl), std::min(xu, o.xu),
                std::min(yu, o.yu)};
  }

  // The minimum bounding rectangle of this and `o`.
  Rect Union(const Rect& o) const {
    if (IsEmpty()) return o;
    if (o.IsEmpty()) return *this;
    return Rect{std::min(xl, o.xl), std::min(yl, o.yl), std::max(xu, o.xu),
                std::max(yu, o.yu)};
  }

  // Grows this rectangle in place to cover `o`.
  void ExpandToInclude(const Rect& o) { *this = Union(o); }

  // Area (zero for degenerate rectangles). Computed in double precision.
  double Area() const {
    if (IsEmpty()) return 0.0;
    return (static_cast<double>(xu) - xl) * (static_cast<double>(yu) - yl);
  }

  // Half perimeter: (width + height). The R*-tree split algorithm minimizes
  // summed margins; any positive scaling works, so we use the half value.
  double Margin() const {
    if (IsEmpty()) return 0.0;
    return (static_cast<double>(xu) - xl) + (static_cast<double>(yu) - yl);
  }

  // Area of overlap with `o`; zero when disjoint.
  double OverlapArea(const Rect& o) const {
    const double w = std::min<double>(xu, o.xu) - std::max<double>(xl, o.xl);
    if (w <= 0.0) return 0.0;
    const double h = std::min<double>(yu, o.yu) - std::max<double>(yl, o.yl);
    if (h <= 0.0) return 0.0;
    return w * h;
  }

  // Increase in area needed to cover `o`: Area(Union) - Area(this).
  double Enlargement(const Rect& o) const { return Union(o).Area() - Area(); }

  // Center point of the rectangle.
  Point Center() const {
    return Point{static_cast<Coord>((static_cast<double>(xl) + xu) / 2.0),
                 static_cast<Coord>((static_cast<double>(yl) + yu) / 2.0)};
  }

  // Squared Euclidean distance between the centers of two rectangles.
  double CenterDistance2(const Rect& o) const {
    const Point a = Center();
    const Point b = o.Center();
    const double dx = static_cast<double>(a.x) - b.x;
    const double dy = static_cast<double>(a.y) - b.y;
    return dx * dx + dy * dy;
  }

  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.xl == b.xl && a.yl == b.yl && a.xu == b.xu && a.yu == b.yu;
  }
};

}  // namespace rsj

#endif  // RSJ_GEOM_RECT_H_
