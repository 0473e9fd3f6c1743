// Structural invariant checking for R-trees, used by the property-based
// tests and by the index loader (storage/persistence.h): one iterative walk
// from the root over the pages in place (rtree/node.h's checked view), so a
// corrupt page is a reported violation, never an abort.

#include <cstdarg>
#include <cstdio>

#include "rtree/rtree.h"

namespace rsj {

namespace {

void AddError(std::vector<std::string>* errors, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AddError(std::vector<std::string>* errors, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  errors->emplace_back(buf);
}

}  // namespace

std::vector<std::string> RTree::Validate() const {
  std::vector<std::string> errors;
  const size_t page_count = file_->allocated_pages();
  // 1: reached from the root, 2: on the free list.
  std::vector<uint8_t> mark(page_count, 0);
  struct Pending {
    PageId page;
    int64_t level;  // the level the parent implies
    Rect bound;     // the parent's entry for the page (none for the root)
  };
  std::vector<Pending> stack = {{root_, height_ - 1, Rect::Empty()}};
  uint64_t data_entries = 0;
  while (!stack.empty()) {
    const Pending at = stack.back();
    stack.pop_back();
    if (at.page >= page_count) {
      AddError(&errors, "reference to page %u beyond the file (%zu pages)",
               at.page, page_count);
      continue;
    }
    if (mark[at.page] != 0) {
      AddError(&errors, "page %u referenced more than once", at.page);
      continue;
    }
    mark[at.page] = 1;
    const std::optional<NodeView> node = CheckedViewNode(*file_, at.page);
    if (!node.has_value()) {
      AddError(&errors,
               "page %u holds no R-tree node (no magic, or more than %u "
               "entries)",
               at.page, capacity_);
      continue;
    }
    const EntryColumns& entries = node->entries;
    if (node->level != at.level) {
      AddError(&errors,
               "page %u: level %d, expected %lld (unbalanced tree)", at.page,
               static_cast<int>(node->level),
               static_cast<long long>(at.level));
    }
    const bool is_root = at.page == root_;
    if (!is_root && entries.size < min_entries_) {
      AddError(&errors, "page %u: %u entries under minimum %u", at.page,
               entries.size, min_entries_);
    }
    if (is_root && !node->is_leaf() && entries.size < 2) {
      AddError(&errors, "directory root %u has fewer than two children",
               at.page);
    }
    // Exact, so every entry also lies inside its parent's rectangle.
    if (!is_root && !(node->ComputeMbr() == at.bound)) {
      AddError(&errors,
               "page %u: stored parent MBR is not the exact union of entries",
               at.page);
    }
    for (uint32_t i = 0; i < entries.size; ++i) {
      // IsValid is false for NaN and infinite coordinates too.
      if (!entries.rect(i).IsValid()) {
        AddError(&errors, "page %u: invalid entry rectangle", at.page);
      }
    }
    if (node->is_leaf()) {
      data_entries += entries.size;
      continue;
    }
    for (uint32_t i = 0; i < entries.size; ++i) {
      stack.push_back(Pending{entries.ref[i], at.level - 1, entries.rect(i)});
    }
  }
  if (data_entries != size_) {
    AddError(&errors, "tree reports size %zu but holds %llu data entries",
             size_, static_cast<unsigned long long>(data_entries));
  }
  for (const PageId id : file_->free_list()) {
    if (id >= page_count) {
      AddError(&errors, "free page %u beyond the file", id);
    } else if (mark[id] == 2) {
      AddError(&errors, "free page %u listed twice", id);
    } else if (mark[id] == 1) {
      AddError(&errors, "free page %u reachable from the root", id);
    } else {
      mark[id] = 2;
    }
  }
  return errors;
}

}  // namespace rsj
