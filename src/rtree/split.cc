#include "rtree/split.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>

#include "common/logging.h"

namespace rsj {

namespace {

// Bounding boxes of all prefixes ([0, i)) and suffixes ([i, n)) of `entries`.
struct PrefixSuffixMbrs {
  std::vector<Rect> prefix;  // prefix[i] = MBR of entries[0..i)
  std::vector<Rect> suffix;  // suffix[i] = MBR of entries[i..n)
};

PrefixSuffixMbrs ComputePrefixSuffix(const std::vector<Entry>& entries) {
  const size_t n = entries.size();
  PrefixSuffixMbrs out;
  out.prefix.assign(n + 1, Rect::Empty());
  out.suffix.assign(n + 1, Rect::Empty());
  for (size_t i = 0; i < n; ++i) {
    out.prefix[i + 1] = out.prefix[i].Union(entries[i].rect);
  }
  for (size_t i = n; i-- > 0;) {
    out.suffix[i] = out.suffix[i + 1].Union(entries[i].rect);
  }
  return out;
}

// Sum of margins of both groups over all legal distributions of `entries`
// (already sorted). Used for the R* split-axis choice.
double MarginSum(const std::vector<Entry>& entries, uint32_t min_entries) {
  const PrefixSuffixMbrs ps = ComputePrefixSuffix(entries);
  const size_t n = entries.size();
  double sum = 0.0;
  for (size_t first = min_entries; first + min_entries <= n; ++first) {
    sum += ps.prefix[first].Margin() + ps.suffix[first].Margin();
  }
  return sum;
}

struct BestDistribution {
  double overlap = std::numeric_limits<double>::infinity();
  double area = std::numeric_limits<double>::infinity();
  size_t split_point = 0;  // size of the left group
  bool by_upper = false;   // which of the two sortings won
};

void ConsiderDistributions(const std::vector<Entry>& entries,
                           uint32_t min_entries, bool by_upper,
                           BestDistribution* best) {
  const PrefixSuffixMbrs ps = ComputePrefixSuffix(entries);
  const size_t n = entries.size();
  for (size_t first = min_entries; first + min_entries <= n; ++first) {
    const double overlap = ps.prefix[first].OverlapArea(ps.suffix[first]);
    const double area = ps.prefix[first].Area() + ps.suffix[first].Area();
    if (overlap < best->overlap ||
        (overlap == best->overlap && area < best->area)) {
      best->overlap = overlap;
      best->area = area;
      best->split_point = first;
      best->by_upper = by_upper;
    }
  }
}

void SortByAxis(std::vector<Entry>* entries, bool x_axis, bool by_upper) {
  std::sort(entries->begin(), entries->end(),
            [x_axis, by_upper](const Entry& a, const Entry& b) {
              const Coord ka = x_axis ? (by_upper ? a.rect.xu : a.rect.xl)
                                      : (by_upper ? a.rect.yu : a.rect.yl);
              const Coord kb = x_axis ? (by_upper ? b.rect.xu : b.rect.xl)
                                      : (by_upper ? b.rect.yu : b.rect.yl);
              if (ka != kb) return ka < kb;
              // Secondary key keeps the sort deterministic for equal keys.
              const Coord sa = x_axis ? (by_upper ? a.rect.xl : a.rect.xu)
                                      : (by_upper ? a.rect.yl : a.rect.yu);
              const Coord sb = x_axis ? (by_upper ? b.rect.xl : b.rect.xu)
                                      : (by_upper ? b.rect.yl : b.rect.yu);
              return sa < sb;
            });
}

SplitResult SplitAt(std::vector<Entry> entries, size_t split_point) {
  SplitResult result;
  result.left.assign(entries.begin(),
                     entries.begin() + static_cast<ptrdiff_t>(split_point));
  result.right.assign(entries.begin() + static_cast<ptrdiff_t>(split_point),
                      entries.end());
  return result;
}

}  // namespace

SplitResult SplitRStar(std::vector<Entry> entries, uint32_t min_entries) {
  RSJ_CHECK(entries.size() >= 2 * static_cast<size_t>(min_entries));

  // 1. Choose the split axis: minimal margin sum over both sortings. The
  //    chosen axis's two sortings are step 2's input; x stands unless y's
  //    margin is strictly below it.
  double best_axis_margin = std::numeric_limits<double>::infinity();
  std::vector<Entry> by_lower;
  std::vector<Entry> by_upper;
  for (const bool x_axis : {true, false}) {
    std::vector<Entry> lower = entries;
    // The last sorting takes the input itself.
    std::vector<Entry> upper = x_axis ? entries : std::move(entries);
    SortByAxis(&lower, x_axis, /*by_upper=*/false);
    SortByAxis(&upper, x_axis, /*by_upper=*/true);
    const double margin =
        MarginSum(lower, min_entries) + MarginSum(upper, min_entries);
    if (x_axis || margin < best_axis_margin) {
      by_lower = std::move(lower);
      by_upper = std::move(upper);
    }
    if (margin < best_axis_margin) best_axis_margin = margin;
  }

  // 2. On that axis, choose the distribution with minimal overlap
  //    (ties: minimal area) across both sortings.
  BestDistribution best;
  ConsiderDistributions(by_lower, min_entries, /*by_upper=*/false, &best);
  ConsiderDistributions(by_upper, min_entries, /*by_upper=*/true, &best);

  return SplitAt(best.by_upper ? std::move(by_upper) : std::move(by_lower),
                 best.split_point);
}

SplitResult SplitQuadratic(std::vector<Entry> entries, uint32_t min_entries) {
  const size_t n = entries.size();
  RSJ_CHECK(n >= 2 * static_cast<size_t>(min_entries));

  // PickSeeds: the pair wasting the most area when grouped together.
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double waste = entries[i].rect.Union(entries[j].rect).Area() -
                           entries[i].rect.Area() - entries[j].rect.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  SplitResult result;
  Rect mbr_left = entries[seed_a].rect;
  Rect mbr_right = entries[seed_b].rect;
  result.left.push_back(entries[seed_a]);
  result.right.push_back(entries[seed_b]);
  std::vector<Entry> rest;
  for (size_t i = 0; i < n; ++i) {
    if (i != seed_a && i != seed_b) rest.push_back(entries[i]);
  }

  while (!rest.empty()) {
    // Min-fill safeguard: if one group must absorb all remaining entries to
    // reach min_entries, assign them wholesale.
    if (result.left.size() + rest.size() == min_entries) {
      for (const Entry& e : rest) result.left.push_back(e);
      break;
    }
    if (result.right.size() + rest.size() == min_entries) {
      for (const Entry& e : rest) result.right.push_back(e);
      break;
    }
    // PickNext: maximal difference between the enlargements.
    size_t pick = 0;
    double best_diff = -1.0;
    double pick_d_left = 0.0;
    double pick_d_right = 0.0;
    for (size_t i = 0; i < rest.size(); ++i) {
      const double d_left = mbr_left.Enlargement(rest[i].rect);
      const double d_right = mbr_right.Enlargement(rest[i].rect);
      const double diff = std::abs(d_left - d_right);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
        pick_d_left = d_left;
        pick_d_right = d_right;
      }
    }
    const Entry chosen = rest[pick];
    rest.erase(rest.begin() + static_cast<ptrdiff_t>(pick));
    bool to_left;
    if (pick_d_left != pick_d_right) {
      to_left = pick_d_left < pick_d_right;
    } else if (mbr_left.Area() != mbr_right.Area()) {
      to_left = mbr_left.Area() < mbr_right.Area();
    } else {
      to_left = result.left.size() <= result.right.size();
    }
    if (to_left) {
      result.left.push_back(chosen);
      mbr_left.ExpandToInclude(chosen.rect);
    } else {
      result.right.push_back(chosen);
      mbr_right.ExpandToInclude(chosen.rect);
    }
  }
  return result;
}

SplitResult SplitLinear(std::vector<Entry> entries, uint32_t min_entries) {
  const size_t n = entries.size();
  RSJ_CHECK(n >= 2 * static_cast<size_t>(min_entries));

  // Seeds: maximal normalized separation over both dimensions.
  size_t seed_a = 0;
  size_t seed_b = 1;
  double best_separation = -std::numeric_limits<double>::infinity();
  for (const bool x_axis : {true, false}) {
    size_t highest_low = 0;  // entry with the greatest lower bound
    size_t lowest_high = 0;  // entry with the smallest upper bound
    Coord min_lo = std::numeric_limits<Coord>::max();
    Coord max_hi = std::numeric_limits<Coord>::lowest();
    for (size_t i = 0; i < n; ++i) {
      const Coord lo = x_axis ? entries[i].rect.xl : entries[i].rect.yl;
      const Coord hi = x_axis ? entries[i].rect.xu : entries[i].rect.yu;
      min_lo = std::min(min_lo, lo);
      max_hi = std::max(max_hi, hi);
      const Coord best_lo =
          x_axis ? entries[highest_low].rect.xl : entries[highest_low].rect.yl;
      if (lo > best_lo) highest_low = i;
      const Coord best_hi =
          x_axis ? entries[lowest_high].rect.xu : entries[lowest_high].rect.yu;
      if (hi < best_hi) lowest_high = i;
    }
    const double width = static_cast<double>(max_hi) - min_lo;
    const Coord sep_lo =
        x_axis ? entries[highest_low].rect.xl : entries[highest_low].rect.yl;
    const Coord sep_hi =
        x_axis ? entries[lowest_high].rect.xu : entries[lowest_high].rect.yu;
    const double separation =
        width > 0.0 ? (static_cast<double>(sep_lo) - sep_hi) / width
                    : -std::numeric_limits<double>::infinity();
    if (separation > best_separation && highest_low != lowest_high) {
      best_separation = separation;
      seed_a = highest_low;
      seed_b = lowest_high;
    }
  }
  if (seed_a == seed_b) seed_b = (seed_a + 1) % n;  // degenerate input

  SplitResult result;
  Rect mbr_left = entries[seed_a].rect;
  Rect mbr_right = entries[seed_b].rect;
  result.left.push_back(entries[seed_a]);
  result.right.push_back(entries[seed_b]);
  for (size_t i = 0; i < n; ++i) {
    if (i == seed_a || i == seed_b) continue;
    const size_t remaining = n - i;  // upper bound on what is still to come
    if (result.left.size() + remaining <= min_entries) {
      result.left.push_back(entries[i]);
      mbr_left.ExpandToInclude(entries[i].rect);
      continue;
    }
    if (result.right.size() + remaining <= min_entries) {
      result.right.push_back(entries[i]);
      mbr_right.ExpandToInclude(entries[i].rect);
      continue;
    }
    const double d_left = mbr_left.Enlargement(entries[i].rect);
    const double d_right = mbr_right.Enlargement(entries[i].rect);
    const bool to_left = d_left < d_right ||
                         (d_left == d_right &&
                          result.left.size() <= result.right.size());
    if (to_left) {
      result.left.push_back(entries[i]);
      mbr_left.ExpandToInclude(entries[i].rect);
    } else {
      result.right.push_back(entries[i]);
      mbr_right.ExpandToInclude(entries[i].rect);
    }
  }

  // Final safeguard: rebalance if a group is still under-filled (can happen
  // only for adversarial orderings; keeps the invariant unconditional).
  auto rebalance = [&](std::vector<Entry>* small, std::vector<Entry>* big) {
    while (small->size() < min_entries) {
      small->push_back(big->back());
      big->pop_back();
    }
  };
  rebalance(&result.left, &result.right);
  rebalance(&result.right, &result.left);
  return result;
}

namespace {

// The candidate of least (overlap enlargement, area enlargement, area) in
// `order`, the first in `order` among equal keys. `*tied` is set when
// another candidate has the winner's whole key, so that the order among
// equal enlargements named the winner.
//
// Three prunes, none of which changes the result bit for bit. With
// grown = rc ∪ rect ⊇ rc, every term grown∩rj - rc∩rj of a candidate's
// overlap sum is >= +0.0 (the double roundings are monotone), so:
//  - a sibling that does not touch `grown` adds exactly +0.0 (both
//    overlaps are the literal 0.0), which leaves the sum as it is;
//  - the partial sum never decreases, so a candidate is dropped once it
//    exceeds the best sum;
//  - a best sum of 0 can only be tied, so a candidate that loses the
//    (enlargement, area) tie-break is not summed at all (one that ties
//    it is, to report a whole-key tie).
size_t EvaluateCandidates(const RectColumns& children, const Rect& rect,
                          std::span<const uint32_t> order,
                          const double* enlargement_of, bool* tied) {
  const size_t n = children.size;
  size_t best = order[0];
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  *tied = false;
  for (const uint32_t c : order) {
    const Rect rc = children.RectAt(c);
    const double enlargement = enlargement_of[c];
    const double area = rc.Area();
    const bool wins_tie =
        enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area);
    const bool ties = enlargement == best_enlargement && area == best_area;
    if (best_overlap_delta == 0.0 && !wins_tie && !ties) continue;
    const Rect grown = rc.Union(rect);
    double overlap_delta = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const Rect rj = children.RectAt(j);
      if (j == c || !grown.Intersects(rj)) continue;
      overlap_delta += grown.OverlapArea(rj) - rc.OverlapArea(rj);
      if (overlap_delta > best_overlap_delta) break;
    }
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta && wins_tie)) {
      best = c;
      best_overlap_delta = overlap_delta;
      best_enlargement = enlargement;
      best_area = area;
      *tied = false;
    } else if (overlap_delta == best_overlap_delta && ties) {
      *tied = true;
    }
  }
  return best;
}

}  // namespace

size_t ChooseSubtreeRStar(const RectColumns& children, const Rect& rect,
                          uint32_t candidates) {
  RSJ_CHECK(children.size > 0);
  const size_t n = children.size;
  const bool cut = candidates > 0 && n > candidates;

  // Per-thread scratch: heap allocations per insert otherwise.
  thread_local std::vector<double> enlargement_of;
  thread_local std::vector<double> selected;
  thread_local std::vector<uint32_t> order;

  // One pass over the columns: every child's area enlargement, in
  // Rect::Enlargement's double expressions (so the same values), and how
  // many children hold `rect`.
  enlargement_of.resize(n);
  double* enlargement = enlargement_of.data();
  size_t holders = 0;
  for (size_t i = 0; i < n; ++i) {
    const Coord xl = children.xl[i];
    const Coord yl = children.yl[i];
    const Coord xu = children.xu[i];
    const Coord yu = children.yu[i];
    const double grown_area =
        (static_cast<double>(std::max(xu, rect.xu)) - std::min(xl, rect.xl)) *
        (static_cast<double>(std::max(yu, rect.yu)) - std::min(yl, rect.yl));
    enlargement[i] = grown_area - (static_cast<double>(xu) - xl) *
                                      (static_cast<double>(yu) - yl);
    holders += static_cast<size_t>((xl <= rect.xl) & (rect.xu <= xu) &
                                   (yl <= rect.yl) & (rect.yu <= yu));
  }

  const auto by_enlargement = [enlargement](uint32_t a, uint32_t b) {
    return enlargement[a] < enlargement[b];
  };

  if (holders > 0) {
    // Holder path. A holder grows to itself: its key (+0.0, 0, area) is
    // the least there is. When the holders are exactly the children of
    // zero enlargement and all of them are candidates, the least-area
    // holder wins. On an area tie the first candidate does: the lowest
    // slot below the cut; past it partial_sort's pick, so the sorted path
    // decides.
    size_t zeros = 0;
    size_t best = n;
    double best_area = std::numeric_limits<double>::infinity();
    bool area_tie = false;
    for (size_t i = 0; i < n; ++i) {
      if (enlargement[i] != 0.0) continue;
      ++zeros;
      const double area = children.RectAt(i).Area();
      if (area < best_area) {
        best = i;
        best_area = area;
        area_tie = false;
      } else if (area == best_area) {
        area_tie = true;
      }
    }
    if (zeros == holders && (!cut || (zeros <= candidates && !area_tie))) {
      return best;
    }
  } else if (cut) {
    // Selection path. When the `candidates`-th least enlargement is below
    // the next one, the candidates are those up to it, whatever order
    // partial_sort puts them in; that order can decide only between
    // candidates of one whole key, which EvaluateCandidates reports. The
    // prunes are exact in any order, so the least enlargement goes first
    // (its sum is most often the least, and a best sum of 0 leaves only
    // the tie-break to check) and the rest follow in slot order.
    selected.assign(enlargement, enlargement + n);
    const auto last = selected.begin() + (candidates - 1);
    std::nth_element(selected.begin(), last, selected.end());
    const double bound = *last;
    if (bound < *std::min_element(last + 1, selected.end())) {
      order.clear();
      for (size_t i = 0; i < n; ++i) {
        if (enlargement[i] <= bound) order.push_back(static_cast<uint32_t>(i));
      }
      const auto least =
          std::min_element(order.begin(), order.end(), by_enlargement);
      std::rotate(order.begin(), least, least + 1);
      bool tied = false;
      const size_t best =
          EvaluateCandidates(children, rect, order, enlargement, &tied);
      if (!tied) return best;
    }
  }

  // Sorted path, where partial_sort's order among equal enlargements can
  // decide: the first `candidates` children in its order, or every child
  // in slot order below the cut. The call and its input are part of the
  // tree shape.
  order.resize(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  if (cut) {
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<ptrdiff_t>(candidates),
                      order.end(), by_enlargement);
    order.resize(candidates);
  }
  bool tied = false;
  return EvaluateCandidates(children, rect, order, enlargement, &tied);
}

}  // namespace rsj
