// Tests for the three split algorithms: partition correctness (every entry
// in exactly one group), min-fill bounds, and quality ordering (the R*
// split should not produce more overlap than the linear split on average);
// and a differential test of the pruned R* ChooseSubtree against the
// unpruned formula.

#include "rtree/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "datagen/rng.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

using SplitFn = SplitResult (*)(std::vector<Entry>, uint32_t);

std::vector<Entry> MakeEntries(const std::vector<Rect>& rects) {
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < rects.size(); ++i) {
    entries.push_back(Entry{rects[i], i});
  }
  return entries;
}

Rect GroupMbr(const std::vector<Entry>& group) {
  Rect mbr = Rect::Empty();
  for (const Entry& e : group) mbr.ExpandToInclude(e.rect);
  return mbr;
}

// Every entry id appears exactly once across both groups.
void ExpectPartition(const std::vector<Entry>& input,
                     const SplitResult& result) {
  EXPECT_EQ(result.left.size() + result.right.size(), input.size());
  std::vector<uint32_t> seen;
  for (const Entry& e : result.left) seen.push_back(e.ref);
  for (const Entry& e : result.right) seen.push_back(e.ref);
  std::sort(seen.begin(), seen.end());
  for (uint32_t i = 0; i < input.size(); ++i) {
    ASSERT_EQ(seen[i], i) << "entry " << i << " lost or duplicated";
  }
}

struct SplitCase {
  const char* name;
  SplitFn fn;
};

class SplitAlgorithmTest : public ::testing::TestWithParam<SplitCase> {};

TEST_P(SplitAlgorithmTest, PartitionsAllEntries) {
  const auto entries =
      MakeEntries(testutil::RandomRects(52, /*seed=*/11, /*extent=*/0.1));
  const SplitResult result = GetParam().fn(entries, 20);
  ExpectPartition(entries, result);
}

TEST_P(SplitAlgorithmTest, RespectsMinFill) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const auto entries =
        MakeEntries(testutil::RandomRects(103, seed, /*extent=*/0.05));
    const uint32_t m = 40;
    const SplitResult result = GetParam().fn(entries, m);
    EXPECT_GE(result.left.size(), m) << "seed " << seed;
    EXPECT_GE(result.right.size(), m) << "seed " << seed;
    ExpectPartition(entries, result);
  }
}

TEST_P(SplitAlgorithmTest, MinimalInput) {
  // 4 entries, m = 2: the smallest legal split.
  const auto entries =
      MakeEntries(testutil::RandomRects(4, /*seed=*/2, /*extent=*/0.3));
  const SplitResult result = GetParam().fn(entries, 2);
  EXPECT_EQ(result.left.size(), 2u);
  EXPECT_EQ(result.right.size(), 2u);
  ExpectPartition(entries, result);
}

TEST_P(SplitAlgorithmTest, HandlesDuplicateRectangles) {
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 10; ++i) {
    entries.push_back(Entry{Rect{1, 1, 2, 2}, i});  // all identical
  }
  const SplitResult result = GetParam().fn(entries, 4);
  EXPECT_GE(result.left.size(), 4u);
  EXPECT_GE(result.right.size(), 4u);
  ExpectPartition(entries, result);
}

TEST_P(SplitAlgorithmTest, HandlesDegenerateRectangles) {
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 12; ++i) {
    const auto f = static_cast<float>(i);
    entries.push_back(Entry{Rect{f, f, f, f}, i});  // points on a diagonal
  }
  const SplitResult result = GetParam().fn(entries, 5);
  ExpectPartition(entries, result);
  EXPECT_GE(result.left.size(), 5u);
  EXPECT_GE(result.right.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SplitAlgorithmTest,
    ::testing::Values(SplitCase{"rstar", &SplitRStar},
                      SplitCase{"quadratic", &SplitQuadratic},
                      SplitCase{"linear", &SplitLinear}),
    [](const ::testing::TestParamInfo<SplitCase>& info) {
      return info.param.name;
    });

TEST(RStarSplitTest, SeparatesTwoObviousClusters) {
  // Two tight clusters far apart: the R* split must cut between them.
  std::vector<Entry> entries;
  uint32_t id = 0;
  for (int i = 0; i < 10; ++i) {
    const auto f = static_cast<float>(i) * 0.01f;
    entries.push_back(Entry{Rect{f, f, f + 0.01f, f + 0.01f}, id++});
    entries.push_back(
        Entry{Rect{10 + f, 10 + f, 10.01f + f, 10.01f + f}, id++});
  }
  const SplitResult result = SplitRStar(entries, 5);
  const Rect left = GroupMbr(result.left);
  const Rect right = GroupMbr(result.right);
  EXPECT_DOUBLE_EQ(left.OverlapArea(right), 0.0);
  EXPECT_EQ(result.left.size(), result.right.size());
}

TEST(RStarSplitTest, OverlapNoWorseThanLinearOnAverage) {
  double rstar_overlap = 0.0;
  double linear_overlap = 0.0;
  for (uint64_t seed = 100; seed < 130; ++seed) {
    const auto entries =
        MakeEntries(testutil::ClusteredRects(52, seed, 4, 0.05));
    const SplitResult rs = SplitRStar(entries, 20);
    const SplitResult ls = SplitLinear(entries, 20);
    rstar_overlap += GroupMbr(rs.left).OverlapArea(GroupMbr(rs.right));
    linear_overlap += GroupMbr(ls.left).OverlapArea(GroupMbr(ls.right));
  }
  EXPECT_LE(rstar_overlap, linear_overlap * 1.05);
}

TEST(QuadraticSplitTest, SeedsAreSeparated) {
  // The two most wasteful entries must land in different groups.
  std::vector<Entry> entries;
  entries.push_back(Entry{Rect{0, 0, 1, 1}, 0});      // far left
  entries.push_back(Entry{Rect{99, 99, 100, 100}, 1});  // far right
  for (uint32_t i = 2; i < 8; ++i) {
    entries.push_back(Entry{Rect{50, 50, 51, 51}, i});  // middle blob
  }
  const SplitResult result = SplitQuadratic(entries, 2);
  const auto in_left = [&](uint32_t ref) {
    for (const Entry& e : result.left) {
      if (e.ref == ref) return true;
    }
    return false;
  };
  EXPECT_NE(in_left(0), in_left(1));
}


// --- R* ChooseSubtree ------------------------------------------------------

// The R* level-1 choice as RTree::ChooseSubtree computed it before its
// overlap sum was pruned, kept verbatim as the differential reference:
// every candidate sums its overlap enlargement over every sibling.
size_t ReferenceChooseSubtreeRStar(const std::vector<Entry>& entries,
                                   const Rect& rect, uint32_t candidates) {
  const size_t n = entries.size();
  std::vector<double> enlargement_of(n);
  for (size_t i = 0; i < n; ++i) {
    enlargement_of[i] = entries[i].rect.Enlargement(rect);
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  const size_t limit = candidates;
  if (limit > 0 && n > limit) {
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<ptrdiff_t>(limit),
                      order.end(), [&](size_t a, size_t b) {
                        return enlargement_of[a] < enlargement_of[b];
                      });
    order.resize(limit);
  }
  size_t best = order[0];
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const size_t c : order) {
    const Rect& rc = entries[c].rect;
    const Rect grown = rc.Union(rect);
    double overlap_delta = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == c) continue;
      const Rect& rj = entries[j].rect;
      overlap_delta += grown.OverlapArea(rj) - rc.OverlapArea(rj);
    }
    const double enlargement = enlargement_of[c];
    const double area = rc.Area();
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta &&
         (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)))) {
      best = c;
      best_overlap_delta = overlap_delta;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

// The children's rectangles as the page columns ChooseSubtreeRStar reads.
RectBlock ChildRects(const std::vector<Entry>& entries) {
  RectBlock block;
  for (uint32_t i = 0; i < entries.size(); ++i) {
    block.PushBack(entries[i].rect, i);
  }
  return block;
}

// Random node contents shaped to hit the prunes' edge cases: children of
// a per-node extent (far apart to heavily overlapping), coordinates on a
// 1/64 grid (children touch at edges; enlargements, areas and overlap sums
// tie exactly), zero-area children, duplicate children, and new
// rectangles inside one or several children.
class ChooseSubtreeNodeGen {
 public:
  explicit ChooseSubtreeNodeGen(uint64_t seed) : rng_(seed) {}

  // [lo, lo + len] inside [0, 1] with len <= extent_, on the grid or not.
  std::pair<Coord, Coord> Interval(bool grid) {
    if (grid) {
      const auto steps = static_cast<uint64_t>(extent_ * 64.0);
      const uint64_t len = rng_.UniformInt(steps + 1);
      const uint64_t lo = rng_.UniformInt(65 - len);
      return {static_cast<Coord>(lo) / 64.0f,
              static_cast<Coord>(lo + len) / 64.0f};
    }
    const double len = rng_.Uniform(0.0, extent_);
    const double lo = rng_.Uniform(0.0, 1.0 - len);
    return {static_cast<Coord>(lo), static_cast<Coord>(lo + len)};
  }

  Rect Child() {
    const bool grid = rng_.Bernoulli(0.5);
    auto [xl, xu] = Interval(grid);
    auto [yl, yu] = Interval(grid);
    switch (rng_.UniformInt(6)) {
      case 0:  // point
        xu = xl;
        yu = yl;
        ++zero_area;
        break;
      case 1:  // horizontal segment
        yu = yl;
        ++zero_area;
        break;
      case 2:  // vertical segment
        xu = xl;
        ++zero_area;
        break;
      default:
        break;
    }
    return Rect{xl, yl, xu, yu};
  }

  // A rectangle inside `outer` (possibly equal to it, or degenerate).
  Rect Inside(const Rect& outer) {
    if (rng_.Bernoulli(0.1)) return outer;
    const auto lerp = [this](Coord lo, Coord hi) {
      return static_cast<Coord>(lo + (hi - lo) * rng_.Uniform());
    };
    Coord xl = lerp(outer.xl, outer.xu);
    Coord xu = lerp(outer.xl, outer.xu);
    Coord yl = lerp(outer.yl, outer.yu);
    Coord yu = lerp(outer.yl, outer.yu);
    if (xu < xl) std::swap(xl, xu);
    if (yu < yl) std::swap(yl, yu);
    return Rect{xl, yl, xu, yu};
  }

  // A rectangle covering `inner`, grown by grid or fine margins.
  Rect Around(const Rect& inner) {
    const auto grow = [this]() {
      return rng_.Bernoulli(0.3) ? 0.0f
                                 : static_cast<Coord>(rng_.UniformInt(4)) /
                                       16.0f;
    };
    return Rect{inner.xl - grow(), inner.yl - grow(), inner.xu + grow(),
                inner.yu + grow()};
  }

  // Fills `entries` with n children and returns the rectangle to insert.
  Rect Fill(size_t n, std::vector<Entry>* entries) {
    constexpr double kExtents[] = {1.0 / 32, 1.0 / 8, 1.0 / 2};
    extent_ = kExtents[rng_.UniformInt(3)];
    entries->clear();
    for (uint32_t i = 0; i < n; ++i) entries->push_back(Entry{Child(), i});
    // Duplicate children: equal enlargements, areas and overlap sums.
    if (rng_.Bernoulli(0.3)) {
      const size_t copies = 1 + rng_.UniformInt(n);
      for (size_t k = 0; k < copies; ++k) {
        (*entries)[rng_.UniformInt(n)].rect =
            (*entries)[rng_.UniformInt(n)].rect;
      }
      ++duplicates;
    }
    switch (rng_.UniformInt(4)) {
      case 0: {  // inside one child
        ++inside_one;
        return Inside((*entries)[rng_.UniformInt(n)].rect);
      }
      case 1: {  // inside several children that share a region
        ++inside_several;
        const Rect core = Child();
        const size_t holders = 2 + rng_.UniformInt(std::min<size_t>(n, 6) - 1);
        for (size_t k = 0; k < holders; ++k) {
          (*entries)[rng_.UniformInt(n)].rect = Around(core);
        }
        return Inside(core);
      }
      default:
        return Child();
    }
  }

  size_t zero_area = 0;
  size_t duplicates = 0;
  size_t inside_one = 0;
  size_t inside_several = 0;

 private:
  Rng rng_;
  double extent_ = 1.0;
};

// Counts the two kinds of node on which partial_sort's order among equal
// keys can decide the choice: a tie at the candidate cut (the
// `candidates`-th least enlargement equals the next one), and two
// candidates that share the winning (overlap sum, enlargement, area) key.
struct OrderTies {
  size_t at_cut = 0;
  size_t on_winning_key = 0;

  void Count(const std::vector<Entry>& entries, const Rect& rect,
             uint32_t candidates) {
    const size_t n = entries.size();
    std::vector<double> enlargement_of(n);
    for (size_t i = 0; i < n; ++i) {
      enlargement_of[i] = entries[i].rect.Enlargement(rect);
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    if (candidates > 0 && n > candidates) {
      std::vector<double> ascending = enlargement_of;
      std::sort(ascending.begin(), ascending.end());
      if (ascending[candidates - 1] == ascending[candidates]) ++at_cut;
      std::partial_sort(order.begin(), order.begin() + candidates, order.end(),
                        [&](size_t a, size_t b) {
                          return enlargement_of[a] < enlargement_of[b];
                        });
      order.resize(candidates);
    }
    std::vector<std::tuple<double, double, double>> keys;
    for (const size_t c : order) {
      const Rect& rc = entries[c].rect;
      const Rect grown = rc.Union(rect);
      double overlap_delta = 0.0;
      for (size_t j = 0; j < n; ++j) {
        if (j == c) continue;
        overlap_delta += grown.OverlapArea(entries[j].rect) -
                         rc.OverlapArea(entries[j].rect);
      }
      keys.emplace_back(overlap_delta, enlargement_of[c], rc.Area());
    }
    const auto winning = *std::min_element(keys.begin(), keys.end());
    if (std::count(keys.begin(), keys.end(), winning) > 1) ++on_winning_key;
  }
};

// The pruned choice picks the same child as the unpruned formula on 20,000
// seeded nodes of 2..204 entries, both sides of the candidate cut.
TEST(ChooseSubtreeRStarTest, MatchesUnprunedReference) {
  constexpr size_t kNodes = 20000;
  ChooseSubtreeNodeGen gen(/*seed=*/15);
  OrderTies ties;
  std::vector<Entry> entries;
  size_t sorted_cut = 0;
  for (size_t trial = 0; trial < kNodes; ++trial) {
    const size_t n = 2 + trial % 203;
    // The default limit, a small one, and 0 (every entry is a candidate;
    // the reference is then quadratic in n, so small nodes only).
    uint32_t limit = 32;
    if (trial % 5 == 3) limit = 8;
    if (trial % 5 == 4 && n <= 48) limit = 0;
    const Rect rect = gen.Fill(n, &entries);
    if (limit > 0 && n > limit) ++sorted_cut;
    ties.Count(entries, rect, limit);
    const size_t expected = ReferenceChooseSubtreeRStar(entries, rect, limit);
    const size_t actual =
        ChooseSubtreeRStar(ChildRects(entries), rect, limit);
    ASSERT_EQ(actual, expected)
        << "trial " << trial << ": n=" << n << " candidates=" << limit
        << " rect=" << rect.ToString();
  }
  // Every shape the generator aims at occurred often.
  EXPECT_GT(sorted_cut, kNodes / 2);
  EXPECT_LT(sorted_cut, kNodes - kNodes / 10);
  EXPECT_GT(gen.zero_area, kNodes);
  EXPECT_GT(gen.duplicates, kNodes / 5);
  EXPECT_GT(gen.inside_one, kNodes / 5);
  EXPECT_GT(gen.inside_several, kNodes / 5);
  // So did both kinds of node whose choice partial_sort's order decides.
  EXPECT_GT(ties.at_cut, 0u);
  EXPECT_GT(ties.on_winning_key, 0u);
}

// A new rectangle inside several identical children: every candidate ties
// on overlap, enlargement and area, so the first in candidate order wins.
TEST(ChooseSubtreeRStarTest, FullTieGoesToFirstCandidate) {
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 5; ++i) {
    entries.push_back(Entry{Rect{0, 0, 1, 1}, i});
  }
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(entries),
                               Rect{0.25f, 0.25f, 0.5f, 0.5f}, 32),
            0u);
}

// The same full tie past the cut: more identical children than candidates
// all hold the new rectangle, so partial_sort picks the candidates and its
// order names the first. The slot is libstdc++'s order, recorded.
TEST(ChooseSubtreeRStarTest, FullTiePastTheCutFollowsPartialSortOrder) {
  for (const uint32_t n : {33u, 40u, 204u}) {
    std::vector<Entry> entries;
    for (uint32_t i = 0; i < n; ++i) {
      entries.push_back(Entry{Rect{0, 0, 1, 1}, i});
    }
    const Rect rect{0.25f, 0.25f, 0.5f, 0.5f};
    EXPECT_EQ(ChooseSubtreeRStar(ChildRects(entries), rect, 32), 18u)
        << n << " children";
    EXPECT_EQ(ReferenceChooseSubtreeRStar(entries, rect, 32), 18u)
        << n << " children";
  }
}

// Equal enlargements at the cut, no child holding the new point: the 31
// children of least enlargement all grow over a wide sibling, and the two
// tied at the cut grow over nothing. Of those two the smaller would win,
// but partial_sort keeps only the larger (libstdc++'s order, recorded).
TEST(ChooseSubtreeRStarTest, TieAtTheCutFollowsPartialSortOrder) {
  std::vector<Entry> entries;
  const auto add = [&entries](const Rect& rect) {
    entries.push_back(Entry{rect, static_cast<uint32_t>(entries.size())});
  };
  add(Rect{1, -5, 2, -3});  // area 2, enlargement 8: tied at the cut
  for (int i = 0; i < 31; ++i) {
    const float dx = static_cast<float>(i) / 64;  // enlargement 3 + i/32
    add(Rect{1 + dx, 1, 2 + dx, 2});
  }
  add(Rect{0.5f, 0.5f, 10, 10});  // the wide sibling, enlargement 9.75
  add(Rect{-3, -3, -2, -2});  // area 1, enlargement 8: tied at the cut
  for (int i = 0; i < 6; ++i) {
    const auto x = static_cast<float>(20 + 2 * i);
    add(Rect{x, 20, x + 1, 21});
  }
  const Rect point{0, 0, 0, 0};
  std::vector<double> ascending;
  for (const Entry& e : entries) {
    ASSERT_FALSE(e.rect.Contains(point));
    ascending.push_back(e.rect.Enlargement(point));
  }
  std::sort(ascending.begin(), ascending.end());
  ASSERT_EQ(ascending[31], 8.0);
  ASSERT_EQ(ascending[32], 8.0);
  EXPECT_EQ(ReferenceChooseSubtreeRStar(entries, point, 32), 0u);
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(entries), point, 32), 0u);
  // With every child a candidate the smaller one wins.
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(entries), point, 0), 33u);
}

// Children of zero enlargement that do not hold the new rectangle are
// compared on their whole key, not as holders. A segment that grows along
// its own line keeps area 0, so its key (+0.0, 0, 0) beats the holder's
// (+0.0, 0, 1). A wide child whose growth rounds away in its area still
// grows over a sibling, so it loses to the holder although its area is
// smaller.
TEST(ChooseSubtreeRStarTest, ZeroEnlargementWithoutHoldingIsNotAHolder) {
  const std::vector<Entry> segment = {
      Entry{Rect{0, 0, 1, 1}, 0},
      Entry{Rect{2, 0.5f, 3, 0.5f}, 1},
  };
  const Rect point{0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_EQ(ReferenceChooseSubtreeRStar(segment, point, 32), 1u);
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(segment), point, 32), 1u);

  const float below_one = std::nextafter(1.0f, 0.0f);  // 1 - 2^-24
  const std::vector<Entry> wide = {
      Entry{Rect{0, 0, 0x1p31f, 0x1p31f}, 0},  // holds the point
      Entry{Rect{1, 0, 0x1p30f, 0x1p30f}, 1},  // 2^30 - 1 + 2^-24 rounds
      Entry{Rect{0.5f, 0.6f, 1, 1}, 2},        // touches the wide child
  };
  const Rect edge{below_one, 0.5f, below_one, 0.5f};
  ASSERT_EQ(wide[1].rect.Enlargement(edge), 0.0);
  ASSERT_FALSE(wide[1].rect.Contains(edge));
  EXPECT_EQ(ReferenceChooseSubtreeRStar(wide, edge, 32), 0u);
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(wide), edge, 32), 0u);
}

// Least overlap enlargement beats least area enlargement.
TEST(ChooseSubtreeRStarTest, PrefersLeastOverlapEnlargement) {
  // Growing child 0 to the new rectangle costs area 1 but overlaps child 1
  // by 0.25; growing child 1 costs area 1.75 and overlaps nothing.
  const std::vector<Entry> entries = {
      Entry{Rect{0, 2, 2, 3}, 0},
      Entry{Rect{2.5f, 2.5f, 4, 4}, 1},
      Entry{Rect{10, 10, 11, 11}, 2},
  };
  const Rect rect{2, 2, 3, 3};
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(entries), rect, 32), 1u);
  EXPECT_EQ(ReferenceChooseSubtreeRStar(entries, rect, 32), 1u);
  // With a single candidate only the least area enlargement is evaluated.
  EXPECT_EQ(ChooseSubtreeRStar(ChildRects(entries), rect, 1), 0u);
}

}  // namespace
}  // namespace rsj
