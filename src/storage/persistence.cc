#include "storage/persistence.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace rsj {

namespace {

constexpr uint32_t kMagic = 0x52534A46;  // "RSJF"
// 2: node pages hold coordinate columns (rtree/node.h), each page followed
// by its checksum. Version 1 files (20-byte entry records, no page
// checksums) load as an error.
constexpr uint32_t kVersion = 2;

// On-disk header; fixed-width fields only.
struct FileHeader {
  uint32_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t page_size = 0;
  uint32_t root_page = 0;
  uint64_t page_count = 0;
  uint64_t free_count = 0;
  int32_t height = 1;
  uint32_t split_policy = 0;
  uint64_t tree_size = 0;
  double min_fill_fraction = 0.4;
  double reinsert_fraction = 0.3;
  uint32_t forced_reinsert = 1;
  uint32_t choose_subtree_candidates = 32;
  uint64_t checksum = 0;  // FNV-1a over all preceding bytes
};

uint64_t Fnv1a(const void* data, size_t length) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < length; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t HeaderChecksum(const FileHeader& header) {
  return Fnv1a(&header, offsetof(FileHeader, checksum));
}

// True when a tree can run with the header's metadata and insertion
// options. The checksum only proves these are the bytes that were written;
// options the RTree constructor rejects, or that abort at the first split
// or insert, must load as an error instead.
bool ValidTreeHeader(const FileHeader& header) {
  if (header.split_policy > static_cast<uint32_t>(SplitPolicy::kLinear)) {
    return false;
  }
  // Free-list ids are distinct pages; a larger count is not worth reading.
  if (header.free_count > header.page_count) return false;
  // One page per level at least.
  if (header.height < 1 ||
      static_cast<uint64_t>(header.height) > header.page_count) {
    return false;
  }
  const double reinsert = header.reinsert_fraction;
  if (!std::isfinite(reinsert) || reinsert < 0.0 || reinsert > 1.0) {
    return false;
  }
  // The constructor's rule, m = max(2, floor(f * M)) with M >= 2m, checked
  // before its float-to-integer cast can see a bad fraction.
  const double fill = header.min_fill_fraction;
  if (!std::isfinite(fill) || fill < 0.0) return false;
  const uint32_t capacity = NodeCapacity(header.page_size);
  const double min_entries = std::max(2.0, std::floor(fill * capacity));
  return capacity >= 2.0 * min_entries;
}

// RAII FILE holder.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool SaveIndexedRelation(const PagedFile& file, const StoredTreeMeta& meta,
                         const std::string& path) {
  FilePtr out(std::fopen(path.c_str(), "wb"));
  if (out == nullptr) return false;

  FileHeader header;
  header.page_size = file.page_size();
  header.root_page = meta.root_page;
  header.page_count = file.allocated_pages();
  header.free_count = file.free_list().size();
  header.height = meta.height;
  header.split_policy = static_cast<uint32_t>(meta.options.split_policy);
  header.tree_size = meta.size;
  header.min_fill_fraction = meta.options.min_fill_fraction;
  header.reinsert_fraction = meta.options.reinsert_fraction;
  header.forced_reinsert = meta.options.forced_reinsert ? 1 : 0;
  header.choose_subtree_candidates = meta.options.choose_subtree_candidates;
  header.checksum = HeaderChecksum(header);

  if (std::fwrite(&header, sizeof(header), 1, out.get()) != 1) return false;
  for (const PageId id : file.free_list()) {
    if (std::fwrite(&id, sizeof(id), 1, out.get()) != 1) return false;
  }
  // Each page is followed by the FNV-1a of its bytes.
  for (PageId id = 0; id < file.allocated_pages(); ++id) {
    const uint64_t checksum = Fnv1a(file.PageData(id), file.page_size());
    if (std::fwrite(file.PageData(id), file.page_size(), 1, out.get()) != 1 ||
        std::fwrite(&checksum, sizeof(checksum), 1, out.get()) != 1) {
      return false;
    }
  }
  return std::fflush(out.get()) == 0;
}

std::optional<LoadedRelation> LoadIndexedRelation(const std::string& path) {
  FilePtr in(std::fopen(path.c_str(), "rb"));
  if (in == nullptr) return std::nullopt;

  FileHeader header;
  if (std::fread(&header, sizeof(header), 1, in.get()) != 1) {
    return std::nullopt;
  }
  if (header.magic != kMagic || header.version != kVersion) {
    return std::nullopt;
  }
  if (header.checksum != HeaderChecksum(header)) return std::nullopt;
  if (header.page_size < 64 || header.root_page >= header.page_count ||
      !ValidTreeHeader(header)) {
    return std::nullopt;
  }

  std::vector<PageId> free_list(header.free_count);
  for (PageId& id : free_list) {
    if (std::fread(&id, sizeof(id), 1, in.get()) != 1) return std::nullopt;
  }

  LoadedRelation loaded;
  loaded.file = std::make_unique<PagedFile>(header.page_size);
  std::vector<std::byte> page(header.page_size);
  for (uint64_t i = 0; i < header.page_count; ++i) {
    uint64_t checksum = 0;
    if (std::fread(page.data(), header.page_size, 1, in.get()) != 1 ||
        std::fread(&checksum, sizeof(checksum), 1, in.get()) != 1) {
      return std::nullopt;  // truncated file
    }
    if (checksum != Fnv1a(page.data(), page.size())) return std::nullopt;
    loaded.file->AppendRaw(page.data());
  }
  loaded.file->RestoreFreeList(std::move(free_list));

  RTreeOptions options;
  options.page_size = header.page_size;
  options.min_fill_fraction = header.min_fill_fraction;
  options.split_policy = static_cast<SplitPolicy>(header.split_policy);
  options.forced_reinsert = header.forced_reinsert != 0;
  options.reinsert_fraction = header.reinsert_fraction;
  options.choose_subtree_candidates = header.choose_subtree_candidates;

  // Attaching allocates nothing, so the walk sees the free list as stored,
  // and it runs before any reader takes a page: a corrupt file loads as an
  // error instead of aborting in a later ViewNode or reading past the page
  // array in a later join.
  loaded.tree = std::make_unique<RTree>(
      RTree::Attach(loaded.file.get(), options, header.root_page,
                    header.height, header.tree_size));
  if (!loaded.tree->Validate().empty()) return std::nullopt;
  return loaded;
}

}  // namespace rsj
