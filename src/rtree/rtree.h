// R-tree / R*-tree over simulated paged storage.
//
// One class covers the R-tree family the paper discusses: the insertion and
// split strategy is selected by `RTreeOptions` (R* with forced reinsertion —
// the paper's index of choice — or Guttman's quadratic/linear variants as
// baselines). Nodes live on fixed-size pages of a `PagedFile`; capacities
// derive from the page size exactly as in Table 1.
//
// The tree performs its own page I/O directly against the file (index
// construction and maintenance are not part of the measured experiments):
// it reads each node page in place through a `NodeView` and edits it in
// place (rtree/node.h). A node's entries are copied out only when an
// insertion overflows it (the M + 1 entries its split or reinsertion
// policy takes) and when a deletion dissolves it (the orphans to
// reinsert). The spatial join operators in src/join traverse the tree
// through a `BufferPool` so every page access of the *join* is accounted.

#ifndef RSJ_RTREE_RTREE_H_
#define RSJ_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rtree/node.h"
#include "rtree/split.h"
#include "storage/paged_file.h"

namespace rsj {

enum class SplitPolicy { kRStar, kQuadratic, kLinear };

struct RTreeOptions {
  uint32_t page_size = kPageSize4K;

  // m = max(2, min_fill_fraction * M); the R*-tree paper recommends 40%.
  double min_fill_fraction = 0.4;

  SplitPolicy split_policy = SplitPolicy::kRStar;

  // R* forced reinsertion: on the first overflow of a level per insertion,
  // the `reinsert_fraction` of entries farthest from the node's MBR center
  // are removed and reinserted ("close reinsert" order).
  bool forced_reinsert = true;
  double reinsert_fraction = 0.3;

  // R* ChooseSubtree: number of least-enlargement candidates for which the
  // exact overlap-enlargement is evaluated at the level above the leaves.
  uint32_t choose_subtree_candidates = 32;
};

// Aggregate structural statistics (the quantities of the paper's Table 1).
struct TreeStats {
  int height = 0;            // number of levels; a lone leaf root has height 1
  size_t dir_pages = 0;      // |R|dir
  size_t data_pages = 0;     // |R|dat
  size_t dir_entries = 0;    // ||R||dir
  size_t data_entries = 0;   // ||R||dat
  Rect root_mbr = Rect::Empty();

  size_t TotalPages() const { return dir_pages + data_pages; }
  size_t TotalEntries() const { return dir_entries + data_entries; }
};

// Aggregate statistics of one tree level (the cost estimator's input).
struct LevelProfile {
  size_t nodes = 0;          // nodes on this level
  double mean_width = 0.0;   // mean rectangle width of the level's entries
  double mean_height = 0.0;  // mean rectangle height
  size_t entries = 0;        // entries on this level
};

// What the planner reads of a tree: one LevelProfile per level (index 0 =
// leaf level) and the root node's MBR.
struct TreeProfile {
  std::vector<LevelProfile> levels;
  Rect root_mbr = Rect::Empty();
};

class RTree {
 public:
  // The tree allocates its pages from `file`, which must outlive it and must
  // have the same page size as `options.page_size`.
  RTree(PagedFile* file, const RTreeOptions& options);

  // Re-attaches a tree to pages already present on `file` (persistence
  // load path). The caller supplies the metadata that was saved.
  static RTree Attach(PagedFile* file, const RTreeOptions& options,
                      PageId root, int height, size_t size);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) = default;

  // Inserts a data entry (filter-step approximation + object identifier).
  // Aborts unless `rect` is valid: finite and non-inverted (Rect::IsValid).
  void Insert(const Rect& rect, uint32_t object_id);

  // Removes a data entry matching (rect, object_id) exactly. Returns false
  // when no such entry exists.
  bool Delete(const Rect& rect, uint32_t object_id);

  // Bulk-loads an empty tree with Sort-Tile-Recursive packing (extension;
  // builds the shard trees and the substrate ablation's packed trees).
  // `fill_fraction` sets the target node utilization in (0, 1]. Every node
  // stores its entries in lower-x order, as insertion keeps them; entries
  // whose sort keys tie keep their input order, so the pages are a
  // function of the input sequence.
  void BulkLoadStr(std::span<const Entry> data_entries, double fill_fraction);

  // Single-scan window query (§2): appends the object ids of all data
  // entries whose rectangle intersects `window`.
  void WindowQuery(const Rect& window, std::vector<uint32_t>* results) const;

  // Number of data entries.
  size_t size() const { return size_; }

  // Number of levels (leaf level is 0, root level is height() - 1).
  int height() const { return height_; }

  PageId root_page() const { return root_; }
  uint32_t capacity() const { return capacity_; }          // M
  uint32_t min_entries() const { return min_entries_; }    // m
  const PagedFile& file() const { return *file_; }
  const RTreeOptions& options() const { return options_; }

  // The per-level profile and root MBR, computed by one full-tree scan on
  // the first call after construction, Attach, Insert, Delete or
  // BulkLoadStr, and kept until the next of those. Safe to call from
  // several threads at once; the reference stays valid until the tree is
  // next mutated.
  const TreeProfile& Profile() const;

  // Table 1 style statistics, derived from Profile().
  TreeStats ComputeStats() const;

  // Structural invariant check; returns human-readable violations (empty
  // when the tree is valid). One walk from the root over the pages in
  // place that never aborts, so it also vets a loaded file
  // (storage/persistence.h): child ids within the file, a node on every
  // page reached (the magic, a count within capacity), levels one below
  // the parent's (the root's is height - 1), no page reached twice, valid
  // (finite, non-inverted) entry rectangles, parent rectangles that are
  // the exact union of their child's entries, fill bounds (m for every
  // non-root node, two children for a directory root), leaf entries
  // summing to size(), and a free list of in-range, distinct pages that no
  // entry reaches.
  std::vector<std::string> Validate() const;

 private:
  // An attached tree over pages already on `file`; allocates nothing.
  RTree(PagedFile* file, const RTreeOptions& options, PageId root, int height,
        size_t size);

  // Descends from the root to a node at `target_level`, choosing subtrees
  // per the configured policy, and returns the page path (root first).
  std::vector<PageId> DescendPath(const Rect& rect, int target_level) const;

  // Slot of the child entry of `node` to descend into for `rect`.
  uint32_t ChooseSubtree(const NodeView& node, const Rect& rect) const;

  // Inserts `entry` into a node at `target_level`, handling overflow.
  void InsertAtLevel(const Entry& entry, int target_level);

  // Places `entry` into the node on path.back(), in place while the node
  // has room (then grows the ancestors' rectangles, GrowPathMbrs), else
  // resolves the overflow.
  void PlaceEntry(const std::vector<PageId>& path, const Entry& entry);

  // Overflow resolution: forced reinsertion (first time per level per
  // insertion, R* only, never at the root) or split. `entries` are the
  // M+1 entries of the node of `level` on path.back(), which still holds
  // its M stored ones.
  void HandleOverflow(std::vector<PageId> path, uint8_t level,
                      std::vector<Entry> entries);
  void ReInsertEntries(std::vector<PageId> path, uint8_t level,
                       std::vector<Entry> entries);
  void SplitNode(std::vector<PageId> path, uint8_t level,
                 std::vector<Entry> entries);

  // Grows the parent entry rectangles along `path` bottom-up to cover
  // `rect`, just inserted into the node on path.back(), and stops at the
  // first that already does. A stored entry rectangle is its child's MBR,
  // so its union with `rect` is the MBR a scan of the child would find,
  // bit for bit, unless a zero is involved: -0.0 == +0.0, and the scan
  // keeps the zero it meets first in slot order. So from the first level
  // where the stored rectangle or `rect` has a zero coordinate up, the
  // MBRs are scanned (UpdatePathMbrs).
  void GrowPathMbrs(const std::vector<PageId>& path, const Rect& rect);

  // Recomputes parent entry MBRs along `path` bottom-up, starting from
  // `child_mbr`, the MBR of the node just written at path.back() (early
  // exit once a level's MBR is unchanged).
  void UpdatePathMbrs(std::span<const PageId> path, Rect child_mbr);

  // DFS locating the leaf containing (rect, object_id); fills `path`.
  bool FindLeafPath(PageId page, const Rect& rect, uint32_t object_id,
                    std::vector<PageId>* path) const;

  // Post-deletion maintenance: dissolve under-full nodes along `path`,
  // reinsert their entries, tighten MBRs, shrink the root.
  void CondenseTree(const std::vector<PageId>& path);

  SplitResult RunSplitPolicy(std::vector<Entry> entries) const;

  // Drops the memoized Profile(); every mutation calls it first.
  void InvalidateProfile() { profile_memo_->profile.reset(); }

  PagedFile* file_;
  RTreeOptions options_;
  uint32_t capacity_;     // M
  uint32_t min_entries_;  // m
  PageId root_;
  int height_;
  size_t size_ = 0;

  // Per-level "overflow already treated" flags of the insertion in progress.
  std::vector<bool> overflow_handled_;

  // Profile()'s memo, behind a pointer so the tree stays movable.
  struct ProfileMemo {
    std::mutex mu;
    std::optional<TreeProfile> profile;  // guarded by `mu`
  };
  std::unique_ptr<ProfileMemo> profile_memo_ =
      std::make_unique<ProfileMemo>();
};

}  // namespace rsj

#endif  // RSJ_RTREE_RTREE_H_
