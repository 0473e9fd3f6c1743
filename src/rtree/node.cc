#include "rtree/node.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace rsj {

namespace {

// Header layout: [uint16 count][uint8 level][uint8 magic].
void EncodeHeader(std::byte* page, uint16_t count, uint8_t level) {
  std::memcpy(page, &count, sizeof(count));
  page[2] = static_cast<std::byte>(level);
  page[3] = static_cast<std::byte>(kNodeMagic);
}

void DecodeHeader(const std::byte* page, uint16_t* count, uint8_t* level) {
  std::memcpy(count, page, sizeof(*count));
  *level = static_cast<uint8_t>(page[2]);
  RSJ_CHECK_MSG(static_cast<uint8_t>(page[3]) == kNodeMagic,
                "page does not contain an R-tree node");
}

}  // namespace

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
  const std::byte* page = file.PageData(id);
  uint16_t count = 0;
  Node node;
  DecodeHeader(page, &count, &node.level);
  RSJ_CHECK_MSG(count <= NodeCapacity(file.page_size()),
                "stored entry count exceeds page capacity");
  node.entries.resize(count);
  const std::byte* cursor = page + kNodeHeaderBytes;
  for (Entry& e : node.entries) {
    std::memcpy(&e.rect.xl, cursor + 0, sizeof(Coord));
    std::memcpy(&e.rect.yl, cursor + 4, sizeof(Coord));
    std::memcpy(&e.rect.xu, cursor + 8, sizeof(Coord));
    std::memcpy(&e.rect.yu, cursor + 12, sizeof(Coord));
    std::memcpy(&e.ref, cursor + 16, sizeof(uint32_t));
    cursor += kEntryBytes;
  }
  return node;
}

void Node::Store(PagedFile* file, PageId id) const {
  RSJ_CHECK_MSG(entries.size() <= NodeCapacity(file->page_size()),
                "node overflows its page");
  std::byte* page = file->MutablePageData(id);
  EncodeHeader(page, static_cast<uint16_t>(entries.size()), level);
  std::byte* cursor = page + kNodeHeaderBytes;
  for (const Entry& e : entries) {
    std::memcpy(cursor + 0, &e.rect.xl, sizeof(Coord));
    std::memcpy(cursor + 4, &e.rect.yl, sizeof(Coord));
    std::memcpy(cursor + 8, &e.rect.xu, sizeof(Coord));
    std::memcpy(cursor + 12, &e.rect.yu, sizeof(Coord));
    std::memcpy(cursor + 16, &e.ref, sizeof(uint32_t));
    cursor += kEntryBytes;
  }
}

}  // namespace rsj
