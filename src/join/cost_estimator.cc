#include "join/cost_estimator.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace rsj {

JoinCostEstimate EstimateJoinCost(const RTree& r, const RTree& s) {
  RSJ_CHECK_MSG(r.options().page_size == s.options().page_size,
                "joined trees must share one page size");
  return EstimateJoinCost(r.Profile(), s.Profile());
}

JoinCostEstimate EstimateJoinCost(const TreeProfile& r, const TreeProfile& s) {
  const std::vector<LevelProfile>& pr = r.levels;
  const std::vector<LevelProfile>& ps = s.levels;

  // Shared data space extent.
  const Rect space = r.root_mbr.Union(s.root_mbr);
  const double width =
      std::max(1e-12, static_cast<double>(space.xu) - space.xl);
  const double height =
      std::max(1e-12, static_cast<double>(space.yu) - space.yl);

  // Trees of different height align at the leaves (§4.4): level i counts
  // from the bottom; the shorter tree's top level stands in above that.
  const size_t levels = std::max(pr.size(), ps.size());
  const auto level_of = [](const std::vector<LevelProfile>& p,
                           size_t level) -> const LevelProfile& {
    return p[std::min(level, p.size() - 1)];
  };

  // Expected qualifying entry pairs per level (Minkowski sum argument):
  //   EP(l) = n_r(l) * n_s(l) * (w_r + w_s)(h_r + h_s) / (W * H).
  std::vector<double> entry_pairs(levels, 0.0);
  for (size_t level = 0; level < levels; ++level) {
    const LevelProfile& lr = level_of(pr, level);
    const LevelProfile& ls = level_of(ps, level);
    if (lr.entries == 0 || ls.entries == 0) continue;
    const double selectivity = (lr.mean_width + ls.mean_width) *
                               (lr.mean_height + ls.mean_height) /
                               (width * height);
    entry_pairs[level] = static_cast<double>(lr.entries) *
                         static_cast<double>(ls.entries) *
                         std::min(1.0, selectivity);
  }

  JoinCostEstimate estimate;
  estimate.result_pairs = entry_pairs[0];
  estimate.space_width = width;
  estimate.space_height = height;
  estimate.r_leaf = pr.front();
  estimate.s_leaf = ps.front();

  // Node pairs processed at level l: the qualifying entry pairs one level
  // up (the virtual pair of roots at the top).
  for (size_t level = 0; level < levels; ++level) {
    const double processed =
        level + 1 < levels ? entry_pairs[level + 1] : 1.0;
    estimate.node_pairs += processed;
    // Every qualifying entry pair on a directory level costs two child
    // page reads when no buffer absorbs re-reads.
    if (level + 1 < levels) {
      estimate.page_reads += 2.0 * entry_pairs[level + 1];
    }
    // SJ1 tests all entries of one node against all of the other:
    // fanout_r * fanout_s intersection tests of ~3 comparisons on average.
    const LevelProfile& lr = level_of(pr, level);
    const LevelProfile& ls = level_of(ps, level);
    if (lr.nodes == 0 || ls.nodes == 0) continue;
    const double fan_r =
        static_cast<double>(lr.entries) / static_cast<double>(lr.nodes);
    const double fan_s =
        static_cast<double>(ls.entries) / static_cast<double>(ls.nodes);
    estimate.sj1_comparisons += processed * fan_r * fan_s * 3.0;
  }
  estimate.page_reads += 2.0;  // the two roots
  return estimate;
}

}  // namespace rsj
