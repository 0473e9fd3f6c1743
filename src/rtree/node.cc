#include "rtree/node.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.h"

// Load and Store move four entries at a time through one 4x4 transpose
// between rectangles and columns, on the x86-64 SSE baseline and with the
// opt-out of geom/simd_kernels.cc (RSJ_DISABLE_SIMD). Tree insertion loads
// and stores pages on every insert: per 4 KiB page of the A-E trees at
// scale 0.1, Load took 0.29 us over 20-byte records, 0.47 us over columns
// one field at a time and 0.39 us transposed; Store 0.37, 0.58 and 0.44.
#if !defined(RSJ_DISABLE_SIMD) && \
    (defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64))
#include <xmmintrin.h>
#define RSJ_NODE_SSE 1
#else
#define RSJ_NODE_SSE 0
#endif

namespace rsj {

static_assert(sizeof(Rect) == 4 * sizeof(Coord), "a Rect is 4 packed floats");

Rect NodeView::ComputeMbr() const {
  if (entries.size == 0) return Rect::Empty();
  Rect mbr = entries.rect(0);  // the min/max fold of Node::ComputeMbr
  for (uint32_t i = 1; i < entries.size; ++i) {
    mbr.xl = std::min(mbr.xl, entries.xl[i]);
    mbr.yl = std::min(mbr.yl, entries.yl[i]);
    mbr.xu = std::max(mbr.xu, entries.xu[i]);
    mbr.yu = std::max(mbr.yu, entries.yu[i]);
  }
  return mbr;
}

std::optional<NodeView> CheckedViewNode(const PagedFile& file, PageId id) {
  const std::byte* page = file.PageData(id);
  const uint32_t page_size = file.page_size();
  uint16_t count = 0;
  std::memcpy(&count, page + kNodeCountByte, sizeof(count));
  if (static_cast<uint8_t>(page[kNodeMagicByte]) != kNodeMagic ||
      count > NodeCapacity(page_size)) {
    return std::nullopt;
  }
  // Pages start at least 4-byte aligned, and so does every column; the
  // columns' floats and refs are what Store wrote through these types.
  const auto column = [&](NodeColumn c) {
    return reinterpret_cast<const Coord*>(page +
                                          NodeFieldOffset(page_size, c, 0));
  };
  return NodeView{
      static_cast<uint8_t>(page[kNodeLevelByte]),
      EntryColumns{column(NodeColumn::kXl), column(NodeColumn::kYl),
                   column(NodeColumn::kXu), column(NodeColumn::kYu),
                   reinterpret_cast<const uint32_t*>(column(NodeColumn::kRef)),
                   count}};
}

NodeView ViewNode(const PagedFile& file, PageId id) {
  const std::optional<NodeView> view = CheckedViewNode(file, id);
  RSJ_CHECK_MSG(view.has_value(), "page does not contain an R-tree node");
  return *view;
}

void NodeCopy::Resize(size_t n) {
  xl_.resize(n);
  yl_.resize(n);
  xu_.resize(n);
  yu_.resize(n);
  ref_.resize(n);
}

uint64_t NodeCopy::AssignSortedByLowerX(const EntryColumns& entries) {
  // Insertion sort of the slot permutation by xl: the comparisons and the
  // stable order of sorting the entries themselves, then one gather.
  const uint32_t n = entries.size;
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  uint64_t comparisons = 0;
  for (uint32_t i = 1; i < n; ++i) {
    const uint32_t pending = order_[i];
    uint32_t j = i;
    while (j > 0) {
      ++comparisons;
      if (!(entries.xl[pending] < entries.xl[order_[j - 1]])) break;
      order_[j] = order_[j - 1];
      --j;
    }
    order_[j] = pending;
  }
  Resize(n);
  for (uint32_t k = 0; k < n; ++k) {
    Set(k, entries.rect(order_[k]), entries.ref[order_[k]]);
  }
  return comparisons;
}

void NodeCopy::AssignExpanded(const EntryColumns& entries, double margin) {
  Resize(entries.size);
  for (uint32_t i = 0; i < entries.size; ++i) {
    Set(i, entries.rect(i).Expanded(margin), entries.ref[i]);
  }
}

void NodeCopy::Set(uint32_t k, const Rect& rect, uint32_t ref) {
  xl_[k] = rect.xl;
  yl_[k] = rect.yl;
  xu_[k] = rect.xu;
  yu_[k] = rect.yu;
  ref_[k] = ref;
}

NodeView SortedByLowerX(const NodeView& node, NodeCopy* copy,
                        ComparisonCounter* charge) {
  const EntryColumns& entries = node.entries;
  if (std::is_sorted(entries.xl, entries.xl + entries.size)) {
    // The sort would move nothing and charge one comparison per entry
    // after the first.
    if (charge != nullptr && entries.size > 0) charge->Add(entries.size - 1);
    return node;
  }
  const uint64_t comparisons = copy->AssignSortedByLowerX(entries);
  if (charge != nullptr) charge->Add(comparisons);
  return NodeView{node.level, copy->columns()};
}

Rect Node::ComputeMbr() const {
  if (entries.empty()) return Rect::Empty();
  // A min/max fold from the first entry: equal to the Union fold for
  // stored (valid) entries, without Union's per-entry emptiness branches.
  Rect mbr = entries.front().rect;
  for (const Entry& e : entries) {
    mbr.xl = std::min(mbr.xl, e.rect.xl);
    mbr.yl = std::min(mbr.yl, e.rect.yl);
    mbr.xu = std::max(mbr.xu, e.rect.xu);
    mbr.yu = std::max(mbr.yu, e.rect.yu);
  }
  return mbr;
}

Node Node::Load(const PagedFile& file, PageId id) {
  const NodeView view = ViewNode(file, id);
  const EntryColumns& c = view.entries;
  Node node;
  node.level = view.level;
  node.entries.resize(c.size);
  Entry* out = node.entries.data();
  uint32_t i = 0;
#if RSJ_NODE_SSE
  for (; i + 4 <= c.size; i += 4) {
    __m128 r0 = _mm_loadu_ps(c.xl + i);
    __m128 r1 = _mm_loadu_ps(c.yl + i);
    __m128 r2 = _mm_loadu_ps(c.xu + i);
    __m128 r3 = _mm_loadu_ps(c.yu + i);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _mm_storeu_ps(&out[i].rect.xl, r0);
    _mm_storeu_ps(&out[i + 1].rect.xl, r1);
    _mm_storeu_ps(&out[i + 2].rect.xl, r2);
    _mm_storeu_ps(&out[i + 3].rect.xl, r3);
    for (uint32_t k = i; k < i + 4; ++k) out[k].ref = c.ref[k];
  }
#endif
  for (; i < c.size; ++i) out[i] = c.entry(i);
  return node;
}

void Node::Store(PagedFile* file, PageId id) const {
  const uint32_t page_size = file->page_size();
  RSJ_CHECK_MSG(entries.size() <= NodeCapacity(page_size),
                "node overflows its page");
  std::byte* page = file->MutablePageData(id);
  const auto count = static_cast<uint16_t>(entries.size());
  std::memcpy(page + kNodeCountByte, &count, sizeof(count));
  page[kNodeLevelByte] = static_cast<std::byte>(level);
  page[kNodeMagicByte] = static_cast<std::byte>(kNodeMagic);
  const auto column = [&](NodeColumn c) {
    return reinterpret_cast<Coord*>(page + NodeFieldOffset(page_size, c, 0));
  };
  Coord* xl = column(NodeColumn::kXl);
  Coord* yl = column(NodeColumn::kYl);
  Coord* xu = column(NodeColumn::kXu);
  Coord* yu = column(NodeColumn::kYu);
  auto* ref = reinterpret_cast<uint32_t*>(column(NodeColumn::kRef));
  size_t i = 0;
#if RSJ_NODE_SSE
  for (; i + 4 <= entries.size(); i += 4) {
    __m128 c0 = _mm_loadu_ps(&entries[i].rect.xl);
    __m128 c1 = _mm_loadu_ps(&entries[i + 1].rect.xl);
    __m128 c2 = _mm_loadu_ps(&entries[i + 2].rect.xl);
    __m128 c3 = _mm_loadu_ps(&entries[i + 3].rect.xl);
    _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
    _mm_storeu_ps(xl + i, c0);
    _mm_storeu_ps(yl + i, c1);
    _mm_storeu_ps(xu + i, c2);
    _mm_storeu_ps(yu + i, c3);
    for (size_t k = i; k < i + 4; ++k) ref[k] = entries[k].ref;
  }
#endif
  for (; i < entries.size(); ++i) {
    xl[i] = entries[i].rect.xl;
    yl[i] = entries[i].rect.yl;
    xu[i] = entries[i].rect.xu;
    yu[i] = entries[i].rect.yu;
    ref[i] = entries[i].ref;
  }
}

}  // namespace rsj
