// Persistence: saving and loading an indexed relation to a real file.
//
// The experiments run against simulated storage, but a library a user
// adopts must survive a process restart. The format (version 2) is a
// fixed header (magic, version, page size, page count, tree metadata,
// header checksum), the free list, then every raw page followed by the
// FNV-1a checksum of its bytes. Loading verifies magic, version, the
// checksums and the tree structure the pages hold, then re-attaches an
// `RTree` to the loaded `PagedFile`.

#ifndef RSJ_STORAGE_PERSISTENCE_H_
#define RSJ_STORAGE_PERSISTENCE_H_

#include <memory>
#include <optional>
#include <string>

#include "rtree/rtree.h"
#include "storage/paged_file.h"

namespace rsj {

// Everything needed to re-attach a tree to its pages.
struct StoredTreeMeta {
  PageId root_page = kInvalidPageId;
  int height = 1;
  uint64_t size = 0;  // data entries
  RTreeOptions options;
};

// Writes `file` and `meta` to `path`. Returns false on I/O failure.
bool SaveIndexedRelation(const PagedFile& file, const StoredTreeMeta& meta,
                         const std::string& path);

// Result of loading: the paged file plus the re-attached tree.
struct LoadedRelation {
  std::unique_ptr<PagedFile> file;
  std::unique_ptr<RTree> tree;
};

// Reads a file written by SaveIndexedRelation. Returns std::nullopt, and
// never aborts, when the file is missing, truncated, or fails validation:
// magic, version (a version-1 file is rejected), header checksum, a free
// list no longer than the page array, every page's checksum, metadata a
// tree can run with (split policy, height, finite fill and reinsert
// fractions the RTree constructor accepts), and the tree's structure:
// every check of RTree::Validate, walked once over the pages right after
// the tree is attached (child ids within the file, node magic, entry
// counts within capacity, levels one below the parent's, no page reached
// twice, valid entry rectangles, exact parent rectangles, fill bounds,
// leaf entries summing to the stored size, a free list of in-range,
// distinct, unreachable pages).
std::optional<LoadedRelation> LoadIndexedRelation(const std::string& path);

}  // namespace rsj

#endif  // RSJ_STORAGE_PERSISTENCE_H_
