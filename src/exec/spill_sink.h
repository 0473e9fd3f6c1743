// Spill-to-disk result path — bounded-memory collection of join output.
//
// The chunked result path (exec/result_sink.h) made results move as
// recycled fixed-capacity blocks, but a *collected* result still
// materializes fully in memory: peak memory scales with the largest
// result set. This module bounds the output side too, over the timed
// write path of the async I/O subsystem (io/io_scheduler.h):
//
//   * `SpillFile` — an append-only serialized store over a private
//     `PagedFile`: every spilled chunk becomes one contiguous page run,
//     written through `IoScheduler::WriteRun` (costed against the
//     spilling worker's modeled clock; the striping spreads a run over
//     the disk array and consecutive stripe units ride the sequential
//     discount).
//   * `ResidentBudget` (engine/memory_governor.h, re-exported here) —
//     the shared admission gauge: completed chunks held resident across
//     all sinks of one run, capped at a configured budget, with the
//     high-water mark reported as
//     `Statistics::result_peak_chunks_resident`. Optionally governed by
//     the engine's run-wide `MemoryGovernor`.
//   * `SpillingSink` — a `ChunkedSink` that keeps completed chunks
//     resident while the budget admits them and serializes the rest to
//     the spill file, recycling the chunk block back into the
//     `ChunkArena` — so a steady-state spilling run holds at most
//     budget + one-staging-chunk-per-sink blocks, independent of the
//     result size.
//   * `SpilledResult` / `SpilledResultReader` — the collected form and
//     its streaming consumer: resident chunks first, then each spilled
//     chunk decoded back (sequential page runs, one chunk resident at a
//     time), so iteration never rematerializes the result.
//   * `TupleSpiller` / `SpilledTupleSet` — the same discipline for the
//     chain join's final tuples (flat `FrontierChunk` blocks instead of
//     pair chunks), filled by each worker's chain sink
//     (exec/multiway_executor.h).
//
// Ownership & threading contracts:
//   * `SpillFile` and `ResidentBudget` are thread-safe and shared by all
//     sinks of one run; both must outlive every sink and every result /
//     reader that references them (executors hand the file to the result
//     via shared_ptr).
//   * `SpillingSink` and `TupleSpiller` are single-owner like every
//     `ResultSink`: exactly one worker thread feeds a sink, and
//     `TakeResult()`/`Take*()` happen after that worker is done.
//   * `SpilledResult`/`SpilledTupleSet` are movable values; readers
//     borrow them const and may run on any one thread at a time.
//     Reading concurrently with still-appending sinks is safe (the file
//     locks), but the reader only sees blocks appended before it was
//     constructed.
//   * All spill I/O is charged to the `Statistics*` passed per call —
//     the same per-worker actor identity the IoScheduler clocks by.

#ifndef RSJ_EXEC_SPILL_SINK_H_
#define RSJ_EXEC_SPILL_SINK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "engine/memory_governor.h"
#include "exec/result_sink.h"
#include "obs/trace.h"
#include "storage/paged_file.h"
#include "storage/statistics.h"

namespace rsj {

class IoScheduler;

// Append-only serialized chunk store over a private PagedFile. Each
// appended block (one result chunk's pairs, or one tuple chunk's flat
// words) occupies a contiguous run of freshly allocated pages; the run is
// written through IoScheduler::WriteRun when a scheduler is attached
// (modeled write cost on the caller's actor clock) and counted as
// disk_writes either way. Thread-safe: many sinks append concurrently,
// readers may read concurrently with appends.
class SpillFile {
 public:
  struct Options {
    // Page size of the spill file — the write/read granularity on the
    // simulated disk array.
    uint32_t page_size = kPageSize4K;
    // Modeled-time layer for the spill writes and re-reads; nullptr
    // degrades to pure counting (disk_writes / disk_reads still flow).
    // Not owned; must outlive the file.
    IoScheduler* io = nullptr;
    // Span sink for spill append/reread spans (obs/trace.h); nullptr =
    // no tracing. Not owned; must outlive the file.
    TraceRecorder* tracer = nullptr;
    // Trace process id the spans are tagged with (the owning query's).
    uint32_t trace_pid = 0;
  };

  // One appended block: a contiguous page run and its payload word count.
  struct BlockRef {
    PageId first_page = kInvalidPageId;
    uint32_t page_count = 0;
    uint32_t word_count = 0;
  };

  explicit SpillFile(const Options& options);

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  // Serializes `words` into a fresh contiguous page run and issues its
  // timed writes. Charges `stats` (the calling worker): one disk_write
  // per page, result_spill_bytes (page-granular) and
  // result_chunks_spilled, plus the modeled write stall when a scheduler
  // is attached. `words` must be non-empty.
  BlockRef AppendBlock(std::span<const uint32_t> words, Statistics* stats);

  // Reads a block back into `out` (resized to the block's word count).
  // Charges `stats` one disk_read per page plus the modeled read time of
  // the sequential page run when a scheduler is attached. stats ==
  // nullptr reads uncounted AND untimed (a scratch copy that must not
  // register an actor clock on the scheduler).
  void ReadBlock(const BlockRef& ref, std::vector<uint32_t>* out,
                 Statistics* stats) const;

  uint32_t page_size() const { return page_size_; }
  uint64_t blocks_written() const;
  uint64_t pages_written() const;

 private:
  const uint32_t page_size_;
  IoScheduler* const io_;
  TraceRecorder* const tracer_;
  const uint32_t trace_pid_;
  mutable std::mutex mu_;  // guards file_ (page allocation + byte access)
  PagedFile file_;
  uint64_t blocks_written_ = 0;
  uint64_t pages_written_ = 0;
};

// `ResidentBudget` — the shared admission gauge of one spilling run —
// lives in engine/memory_governor.h since the serving engine generalized
// it into the run-wide governor; the include above re-exports it for the
// sinks below.

// The collected form of a spilling run: the chunks that stayed resident
// plus the refs of the spilled ones (resident first, then spilled —
// chunk order is scheduling-dependent, exactly like parallel splicing).
// Movable value; keeps the spill file alive via shared ownership.
struct SpilledResult {
  uint64_t pair_count = 0;
  ResultChunkList resident;
  std::vector<SpillFile::BlockRef> spilled;
  std::shared_ptr<SpillFile> file;  // null when nothing was ever spillable

  bool empty() const { return pair_count == 0; }
  uint64_t spilled_chunk_count() const { return spilled.size(); }

  // Steals `other`'s chunks and refs (pointer moves; both inputs must
  // share one spill file).
  void MergeFrom(SpilledResult&& other);

  // Flattens into (r, s) pairs — rematerializes, for API edges only.
  // Spill re-reads are charged to `stats` (nullptr: an uncounted,
  // untimed scratch copy).
  std::vector<std::pair<uint32_t, uint32_t>> CopyPairs(
      Statistics* stats) const;
};

// Streams a SpilledResult chunk by chunk: resident chunks are handed out
// as-is, spilled chunks are decoded into an internal scratch buffer (one
// chunk resident at a time, sequential page runs — prefetch-friendly by
// construction). Single-threaded; the result must outlive the reader.
class SpilledResultReader {
 public:
  // Spill re-reads are charged to `stats` (modeled time + disk_reads).
  SpilledResultReader(const SpilledResult* result, Statistics* stats);

  // Points `*out` at the next chunk's pairs; the span stays valid until
  // the next call. Returns false at the end of the result.
  bool Next(std::span<const ResultPair>* out);

  // Rewinds to the first chunk.
  void Reset();

 private:
  const SpilledResult* result_;
  Statistics* stats_;
  size_t resident_index_ = 0;
  size_t spilled_index_ = 0;
  std::vector<uint32_t> scratch_;
};

// A ChunkedSink that keeps completed chunks resident while the shared
// budget admits them and serializes the rest to the spill file (the chunk
// block recycles into the arena immediately). Single-owner, like every
// ResultSink; `file` and `budget` are the run-wide shared pieces.
class SpillingSink final : public ChunkedSink {
 public:
  // `file`, `budget` and `stats` must outlive the sink.
  SpillingSink(ChunkArena arena, SpillFile* file, ResidentBudget* budget,
               Statistics* stats);

  // Flushes and moves the sink's share of the result out (resident
  // chunks + spill refs, in production order within this sink). The
  // result's `file` stays unset — the executor that owns the shared
  // SpillFile fills it in after merging.
  SpilledResult TakeResult();

 protected:
  void ConsumeChunk(ChunkPtr chunk) override;

 private:
  SpillFile* file_;
  ResidentBudget* budget_;
  Statistics* stats_;
  SpilledResult out_;
};

// --- multiway chain tuples -------------------------------------------------

// A flat block of same-arity tuples: tuple t occupies
// flat[t*arity, (t+1)*arity). Flat storage keeps a chunk one allocation
// and its memory footprint exactly proportional to its tuple count.
struct FrontierChunk {
  uint32_t arity = 0;
  std::vector<uint32_t> flat;

  size_t tuple_count() const {
    return arity == 0 ? 0 : flat.size() / arity;
  }
  const uint32_t* tuple(size_t t) const { return flat.data() + t * arity; }
};

// The spilled form of a chain join's final tuple set: flat arity-N chunks
// that stayed resident plus the refs of the spilled ones. Movable value;
// shares the spill file.
struct SpilledTupleSet {
  uint32_t arity = 0;
  uint64_t tuple_count = 0;
  std::vector<FrontierChunk> resident;
  std::vector<SpillFile::BlockRef> spilled;
  std::shared_ptr<SpillFile> file;

  void MergeFrom(SpilledTupleSet&& other);

  // Streams every tuple (a pointer to `arity` ids) without ever holding
  // more than one spilled chunk; spill re-reads are charged to `stats`
  // (nullptr: uncounted, untimed scratch copies).
  template <typename Fn>
  void ForEachTuple(Fn&& fn, Statistics* stats) const;

  // Rematerializes into id vectors — for API edges and tests only.
  // `stats` as in ForEachTuple.
  std::vector<std::vector<uint32_t>> CopyTuples(Statistics* stats) const;
};

// Accumulates same-arity tuples into fixed-capacity flat chunks and
// admits-or-spills each one as it fills — a chain sink's bounded-memory
// alternative to a tuple vector. Single-owner.
class TupleSpiller {
 public:
  TupleSpiller(uint32_t arity, size_t capacity_tuples, SpillFile* file,
               ResidentBudget* budget, Statistics* stats);

  // Appends prefix ++ [id]: a final tuple, the last probe's extension of
  // its prefix.
  void Append(const uint32_t* prefix, uint32_t prefix_len, uint32_t id);

  // Admits-or-spills the partial chunk and moves the tuples appended
  // since the last Take out (`file` left unset, as with
  // SpillingSink::TakeResult); the spiller stays usable.
  SpilledTupleSet Take();

 private:
  void Seal();

  const uint32_t arity_;
  const size_t capacity_tuples_;
  SpillFile* file_;
  ResidentBudget* budget_;
  Statistics* stats_;
  FrontierChunk current_;
  SpilledTupleSet out_;
};

template <typename Fn>
void SpilledTupleSet::ForEachTuple(Fn&& fn, Statistics* stats) const {
  for (const FrontierChunk& chunk : resident) {
    const size_t n = chunk.tuple_count();
    for (size_t t = 0; t < n; ++t) fn(chunk.tuple(t));
  }
  if (spilled.empty()) return;
  std::vector<uint32_t> scratch;
  for (const SpillFile::BlockRef& ref : spilled) {
    file->ReadBlock(ref, &scratch, stats);
    RSJ_DCHECK(arity != 0 && scratch.size() % arity == 0);
    for (size_t off = 0; off < scratch.size(); off += arity) {
      fn(scratch.data() + off);
    }
  }
}

}  // namespace rsj

#endif  // RSJ_EXEC_SPILL_SINK_H_
