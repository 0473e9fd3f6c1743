#include "geom/segment.h"

#include "common/logging.h"

namespace rsj {

namespace {

// Orientation's sign, inlined into every test below.
inline int OrientationSign(const Point& a, const Point& b, const Point& c) {
  const double cross = (static_cast<double>(b.x) - a.x) *
                           (static_cast<double>(c.y) - a.y) -
                       (static_cast<double>(b.y) - a.y) *
                           (static_cast<double>(c.x) - a.x);
  if (cross > 0.0) return 1;
  if (cross < 0.0) return -1;
  return 0;
}

// SegmentsIntersect after its MBR reject: the orientation tests of two
// segments whose MBRs intersect.
inline bool OrientationsMeet(const Segment& s, const Segment& t) {
  const int o1 = OrientationSign(s.a, s.b, t.a);
  const int o2 = OrientationSign(s.a, s.b, t.b);
  const int o3 = OrientationSign(t.a, t.b, s.a);
  const int o4 = OrientationSign(t.a, t.b, s.b);

  // Proper crossing: the endpoints of each segment straddle the other.
  if (o1 * o2 < 0 && o3 * o4 < 0) return true;

  // Degenerate cases: an endpoint lies on the other segment — collinear
  // with it and inside its MBR (covers collinear overlap together with
  // the MBR test).
  if (o1 == 0 && s.Mbr().Contains(t.a)) return true;
  if (o2 == 0 && s.Mbr().Contains(t.b)) return true;
  if (o3 == 0 && t.Mbr().Contains(s.a)) return true;
  if (o4 == 0 && t.Mbr().Contains(s.b)) return true;
  return false;
}

}  // namespace

int Orientation(const Point& a, const Point& b, const Point& c) {
  return OrientationSign(a, b, c);
}

bool PointOnSegment(const Point& p, const Segment& s) {
  return OrientationSign(s.a, s.b, p) == 0 && s.Mbr().Contains(p);
}

bool SegmentsIntersect(const Segment& s, const Segment& t) {
  // Cheap reject via bounding boxes.
  return s.Mbr().Intersects(t.Mbr()) && OrientationsMeet(s, t);
}

bool PolylinesIntersect(std::span<const Point> a, std::span<const Point> b) {
  if (a.empty() || b.empty()) return false;
  const size_t na = a.size() == 1 ? 1 : a.size() - 1;
  const size_t nb = b.size() == 1 ? 1 : b.size() - 1;
  // Every segment pair, MBR reject first: the chains are short (2–5
  // vertices in the generated data), so a batch prefilter costs more
  // than the tests it saves.
  for (size_t i = 0; i < na; ++i) {
    const Segment sa{a[i], a[a.size() == 1 ? i : i + 1]};
    const Rect sa_mbr = sa.Mbr();
    for (size_t j = 0; j < nb; ++j) {
      const Segment sb{b[j], b[b.size() == 1 ? j : j + 1]};
      if (sa_mbr.Intersects(sb.Mbr()) && OrientationsMeet(sa, sb)) {
        return true;
      }
    }
  }
  return false;
}

Rect PolylineMbr(std::span<const Point> chain) {
  RSJ_CHECK_MSG(!chain.empty(), "polyline must have at least one vertex");
  Rect mbr = Rect::BoundingBox(chain[0], chain[0]);
  for (const Point& p : chain.subspan(1)) {
    mbr.ExpandToInclude(Rect::BoundingBox(p, p));
  }
  return mbr;
}

}  // namespace rsj
