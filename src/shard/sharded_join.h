// Declustered (sharded) spatial join execution — the scale-out layer.
//
// A `ShardedDataset` distributes one relation over the K shards of a
// shared `Declustering` (shard/decluster.h): every object is placed into
// each shard whose tiles its rectangle overlaps (boundary-crossing
// objects are REPLICATED; the replication rectangle is grown by the
// predicate expansion on the probing side, so within-distance pairs that
// straddle a shard border still meet inside a shard), and each shard's
// entries are bulk-loaded into a private STR-packed R-tree on a private
// PagedFile — per-shard builds are independent, which is what makes bulk
// ingest parallelizable across nodes.
//
// `RunShardedSpatialJoin` joins the K co-partitioned tree pairs one after
// another through the existing parallel executor (one ExecContext per
// shard, each with its own pool and all lent the run's one TaskPool;
// results into a per-worker sink chain), with REFERENCE-POINT
// DEDUPLICATION: replication means a qualifying pair can be discovered by
// every shard holding both objects, so each worker's `DedupSink` forwards
// a pair only when the bottom-left corner of (r expanded by the predicate
// expansion) ∩ s — the pair's reference point, a point both objects'
// replication ranges provably cover — is owned by the emitting shard.
// Exactly one shard owns it, so the forwarded multiset is identical to
// the single-tree join's, which the property harness and bench_decluster
// verify wholesale.
//
// Modeled I/O: each shard can get a PRIVATE IoScheduler disk array
// (disks_per_shard), modeling one disk set per node. Each shard's context
// owns the modeled-I/O window over its scheduler, whose close merges the
// shard's clocks, and the run-level modeled elapsed time is the MAX over
// shards — shards are
// independent nodes working concurrently — while the per-shard values
// stay visible for skew analysis.
//
// Accounting: shard build staging buffers lease bytes from the governor's
// `shard_build` category for the duration of the build; the `sh_*`
// Statistics counters carry shards built, replicated placements, raw
// shard-pair hits and dedup-suppressed hits, with the ledger invariant
//   sh_raw_pairs == forwarded pairs + sh_dedup_suppressed.

#ifndef RSJ_SHARD_SHARDED_JOIN_H_
#define RSJ_SHARD_SHARDED_JOIN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/parallel_executor.h"
#include "join/join_options.h"
#include "join/join_runner.h"
#include "rtree/rtree.h"
#include "shard/decluster.h"
#include "storage/statistics.h"

namespace rsj {

struct ShardBuildOptions {
  // Per-shard R-tree configuration (page size, split policy — splits are
  // unused by the STR load but govern later maintenance).
  RTreeOptions tree;

  // Target node utilization of the STR bulk load, in (0, 1].
  double fill_fraction = 0.7;

  // Replication margin: each object is placed into every shard whose
  // tiles its rectangle GROWN BY THIS overlaps. The probing (R) side of
  // a within-distance join sets PredicateExpansion(predicate, epsilon);
  // every other side/predicate uses 0.
  double expansion = 0.0;

  // Run-wide memory ledger: the build's staging buffers (per-shard entry
  // and id arrays) lease from MemoryCategory::kShardBuild while the
  // shard trees load, released when staging is freed. Not owned;
  // nullptr = standalone accounting only.
  MemoryGovernor* governor = nullptr;
};

// One relation distributed over the shards of a Declustering.
class ShardedDataset {
 public:
  // Distributes `rects` (object ids = positions, matching BuildRTree) and
  // bulk-loads the shard trees. `decl` is shared with the other join side
  // and must outlive the dataset. When `stats` is non-null it receives
  // sh_shards_built (one per non-empty shard tree) and
  // sh_objects_replicated (placements beyond each object's first).
  ShardedDataset(const Declustering* decl, std::span<const Rect> rects,
                 const ShardBuildOptions& options, Statistics* stats = nullptr);

  unsigned num_shards() const { return decl_->num_shards(); }
  const Declustering& declustering() const { return *decl_; }

  // The shard's R-tree (empty shards hold an empty tree).
  const RTree& shard_tree(unsigned shard) const {
    return *shards_[shard].tree;
  }

  // Maps shard-local object ids (leaf entry refs) back to global ids.
  std::span<const uint32_t> shard_ids(unsigned shard) const {
    return shards_[shard].ids;
  }

  // The global rectangles, indexed by global object id (dedup reads the
  // original geometry through this).
  std::span<const Rect> rects() const { return rects_; }

  size_t size() const { return rects_.size(); }
  double expansion() const { return expansion_; }

  // Placements beyond each object's first — the replication overhead.
  uint64_t replicated_objects() const { return replicated_; }

 private:
  struct Shard {
    std::unique_ptr<PagedFile> file;
    std::unique_ptr<RTree> tree;
    std::vector<uint32_t> ids;  // local ref -> global object id
  };

  const Declustering* decl_;
  std::vector<Rect> rects_;
  std::vector<Shard> shards_;
  double expansion_ = 0.0;
  uint64_t replicated_ = 0;
};

struct ShardedJoinOptions {
  JoinOptions join;

  // Per-shard executor configuration (threads, pools, chunking,
  // governor). collect_pairs here selects whether the sharded result is
  // materialized; io_scheduler must stay null — shard-local schedulers
  // are created from disks_per_shard instead.
  ParallelExecutorOptions exec;

  // > 0: every shard joins over a PRIVATE IoScheduler disk array of this
  // many disks (one modeled node per shard); clocks merge per shard and
  // the run's modeled elapsed time is the max. 0: no modeled I/O.
  unsigned disks_per_shard = 0;
};

struct ShardedJoinResult {
  // Forwarded (deduplicated) pairs — identical to the single-tree join.
  uint64_t pair_count = 0;
  // The forwarded pairs in GLOBAL object ids, when exec.collect_pairs.
  ResultChunkList chunks;
  // Merged counters of all shard runs (plus the sharded-join ledger:
  // sh_raw_pairs / sh_dedup_suppressed; output_pairs counts the raw
  // per-shard emissions, so output_pairs == sh_raw_pairs here).
  Statistics stats;
  // Per-shard merged counters, for skew analysis.
  std::vector<Statistics> shard_stats;
  // Per-shard modeled elapsed micros (0s without disks_per_shard).
  std::vector<uint64_t> shard_modeled_micros;
  // max over shards — the modeled elapsed time of K independent nodes.
  uint64_t modeled_elapsed_micros = 0;
  // Shard pairs actually joined (both sides non-empty).
  unsigned shards_joined = 0;
  // Dedup ledger: raw == pair_count + suppressed always holds.
  uint64_t raw_pairs = 0;
  uint64_t suppressed_pairs = 0;
};

// Joins two datasets sharded over the SAME Declustering instance.
ShardedJoinResult RunShardedSpatialJoin(const ShardedDataset& r,
                                        const ShardedDataset& s,
                                        const ShardedJoinOptions& options);

// One-call declustered entry: builds one Declustering over both rectangle
// sets, distributes each side into per-shard STR-loaded trees of
// `tree_options` (the probing side's replication grown by the predicate
// expansion, so within-distance works across shard borders), and runs the
// reference-point-deduplicated shard-pair joins. Object ids are positions,
// exactly as in BuildRTree, and the result multiset is identical to
// RunSpatialJoin over two single trees. The result stats carry the build
// counters (sh_shards_built, sh_objects_replicated) and the join ledger
// (sh_raw_pairs, sh_dedup_suppressed) in one place.
JoinRunResult RunShardedSpatialJoin(std::span<const Rect> r_rects,
                                    std::span<const Rect> s_rects,
                                    const DeclusterOptions& decluster,
                                    const RTreeOptions& tree_options,
                                    const ShardedJoinOptions& options);

}  // namespace rsj

#endif  // RSJ_SHARD_SHARDED_JOIN_H_
