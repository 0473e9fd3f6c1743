#include "geom/plane_sweep.h"

#include <utility>

namespace rsj {

void SortByLowerX(std::vector<IndexedRect>* seq) {
  std::sort(seq->begin(), seq->end(),
            [](const IndexedRect& a, const IndexedRect& b) {
              return a.rect.xl < b.rect.xl;
            });
}

bool IsSortedByLowerX(std::span<const IndexedRect> seq) {
  for (size_t i = 1; i < seq.size(); ++i) {
    if (seq[i].rect.xl < seq[i - 1].rect.xl) return false;
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> SortedIntersectionTestPairs(
    std::span<const IndexedRect> rseq, std::span<const IndexedRect> sseq,
    ComparisonCounter* counter) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  SortedIntersectionTest(rseq, sseq, counter, [&](uint32_t r, uint32_t s) {
    pairs.emplace_back(r, s);
  });
  return pairs;
}

std::vector<std::pair<uint32_t, uint32_t>> NestedLoopIntersectionPairs(
    std::span<const Rect> rseq, std::span<const Rect> sseq) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t i = 0; i < rseq.size(); ++i) {
    for (uint32_t j = 0; j < sseq.size(); ++j) {
      if (rseq[i].Intersects(sseq[j])) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

uint64_t FullSweepJoin(std::span<const Rect> rseq, std::span<const Rect> sseq,
                       std::vector<std::pair<uint32_t, uint32_t>>* pairs_out) {
  std::vector<IndexedRect> r(rseq.size());
  std::vector<IndexedRect> s(sseq.size());
  for (uint32_t i = 0; i < rseq.size(); ++i) r[i] = IndexedRect{rseq[i], i};
  for (uint32_t j = 0; j < sseq.size(); ++j) s[j] = IndexedRect{sseq[j], j};
  SortByLowerX(&r);
  SortByLowerX(&s);
  ComparisonCounter scratch;
  uint64_t count = 0;
  SortedIntersectionTest(std::span<const IndexedRect>(r),
                         std::span<const IndexedRect>(s), &scratch,
                         [&](uint32_t ri, uint32_t sj) {
                           ++count;
                           if (pairs_out != nullptr) {
                             pairs_out->emplace_back(ri, sj);
                           }
                         });
  return count;
}

}  // namespace rsj
