// On-page entry layout shared by directory and data nodes.
//
// An entry is (rect, ref): 4 x float32 + uint32 = 20 bytes. A node page
// carries a 4-byte header (entry count, level, magic). The resulting
// capacities M = (pagesize - 4) / 20 reproduce the paper's Table 1 exactly:
//
//     page size   1 KByte   2 KByte   4 KByte   8 KByte
//     M              51       102       204       409
//
// The page stores its M entry slots as five columns behind the header —
// xl[M], yl[M], xu[M], yu[M], ref[M] — so the batch kernels scan a node's
// coordinates on the page itself (rtree/node.h owns that layout and its
// offsets). M is the same as for 20-byte records laid end to end.
//
// For leaf nodes (level 0) `ref` is the object identifier Id(a); for
// directory nodes it is the PageId of the child node.

#ifndef RSJ_RTREE_ENTRY_H_
#define RSJ_RTREE_ENTRY_H_

#include <cstdint>

#include "geom/rect.h"
#include "storage/paged_file.h"

namespace rsj {

struct Entry {
  Rect rect;
  uint32_t ref = 0;

  friend bool operator==(const Entry& a, const Entry& b) {
    return a.rect == b.rect && a.ref == b.ref;
  }
};

// Serialized size of one entry: one slot of each of the five columns.
inline constexpr uint32_t kEntryBytes = 20;

// Serialized node header: uint16 count, uint8 level, uint8 magic.
inline constexpr uint32_t kNodeHeaderBytes = 4;

// Magic byte marking a stored R-tree node (corruption tripwire).
inline constexpr uint8_t kNodeMagic = 0xA5;

// Maximum number of entries a node on a page of `page_size` bytes can hold.
constexpr uint32_t NodeCapacity(uint32_t page_size) {
  return (page_size - kNodeHeaderBytes) / kEntryBytes;
}

static_assert(NodeCapacity(kPageSize1K) == 51, "Table 1: M(1K) = 51");
static_assert(NodeCapacity(kPageSize2K) == 102, "Table 1: M(2K) = 102");
static_assert(NodeCapacity(kPageSize4K) == 204, "Table 1: M(4K) = 204");
static_assert(NodeCapacity(kPageSize8K) == 409, "Table 1: M(8K) = 409");

}  // namespace rsj

#endif  // RSJ_RTREE_ENTRY_H_
