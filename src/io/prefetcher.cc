#include "io/prefetcher.h"

#include <algorithm>

namespace rsj {

size_t Prefetcher::PrefetchSchedule(const PagedFile& file,
                                    std::span<const PageId> pages,
                                    Statistics* stats) const {
  size_t issued = 0;
  for (const PageId id : pages) {
    if (issued >= options_.max_ahead) break;
    if (pool_->Prefetch(file, id, stats)) ++issued;
  }
  return issued;
}

size_t Prefetcher::PrefetchSchedule(const PagedFile& file_a,
                                    std::span<const PageId> a,
                                    const PagedFile& file_b,
                                    std::span<const PageId> b,
                                    Statistics* stats) const {
  size_t issued = 0;
  const size_t steps = std::max(a.size(), b.size());
  for (size_t i = 0; i < steps && issued < options_.max_ahead; ++i) {
    if (i < a.size() && pool_->Prefetch(file_a, a[i], stats)) ++issued;
    if (issued >= options_.max_ahead) break;
    if (i < b.size() && pool_->Prefetch(file_b, b[i], stats)) ++issued;
  }
  return issued;
}

}  // namespace rsj
