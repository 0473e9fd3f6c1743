#include "exec/spill_sink.h"

#include <cstring>

#include "common/logging.h"
#include "io/io_scheduler.h"

namespace rsj {

static_assert(sizeof(ResultPair) == 2 * sizeof(uint32_t),
              "ResultPair must be layout-identical to flat [r, s] words");

SpillFile::SpillFile(const Options& options)
    : page_size_(options.page_size),
      io_(options.io),
      tracer_(options.tracer),
      trace_pid_(options.trace_pid),
      file_(options.page_size) {
  RSJ_CHECK_MSG(page_size_ % sizeof(uint32_t) == 0,
                "spill page size must hold whole words");
}

SpillFile::BlockRef SpillFile::AppendBlock(std::span<const uint32_t> words,
                                           Statistics* stats) {
  RSJ_DCHECK(!words.empty());
  TraceSpan span(tracer_, "spill", "append", trace_pid_, /*sampled=*/true);
  const uint64_t modeled_before =
      span.active() && io_ != nullptr && stats != nullptr
          ? io_->ActorClock(stats)
          : 0;
  const size_t bytes = words.size() * sizeof(uint32_t);
  const uint32_t pages = static_cast<uint32_t>((bytes + page_size_ - 1) /
                                               page_size_);
  BlockRef ref;
  ref.word_count = static_cast<uint32_t>(words.size());
  ref.page_count = pages;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The file is private and never frees, so allocation order is append
    // order and the run is contiguous by construction.
    ref.first_page = file_.Allocate();
    for (uint32_t p = 1; p < pages; ++p) {
      const PageId id = file_.Allocate();
      RSJ_DCHECK(id == ref.first_page + p);
      (void)id;
    }
    const std::byte* src = reinterpret_cast<const std::byte*>(words.data());
    size_t remaining = bytes;
    for (uint32_t p = 0; p < pages; ++p) {
      const size_t take = remaining < page_size_ ? remaining : page_size_;
      std::memcpy(file_.MutablePageData(ref.first_page + p), src, take);
      src += take;
      remaining -= take;
    }
    ++blocks_written_;
    pages_written_ += pages;
  }
  if (stats != nullptr) {
    ++stats->result_chunks_spilled;
    stats->result_spill_bytes += static_cast<uint64_t>(pages) * page_size_;
  }
  // The timed write happens outside the file lock: the page bytes are
  // already settled and the scheduler/disk array synchronize themselves.
  if (io_ != nullptr) {
    io_->WriteRun(this, file_, ref.first_page, pages, page_size_, stats);
  } else if (stats != nullptr) {
    stats->disk_writes += pages;
  }
  if (span.active()) {
    if (io_ != nullptr && stats != nullptr) {
      span.set_modeled_range(modeled_before, io_->ActorClock(stats));
    }
    span.set_arg("pages", pages);
  }
  return ref;
}

void SpillFile::ReadBlock(const BlockRef& ref, std::vector<uint32_t>* out,
                          Statistics* stats) const {
  RSJ_DCHECK(ref.first_page != kInvalidPageId && ref.word_count > 0);
  TraceSpan span(tracer_, "spill", "reread", trace_pid_, /*sampled=*/true);
  const uint64_t modeled_before =
      span.active() && io_ != nullptr && stats != nullptr
          ? io_->ActorClock(stats)
          : 0;
  out->resize(ref.word_count);
  std::byte* dst = reinterpret_cast<std::byte*>(out->data());
  size_t remaining = static_cast<size_t>(ref.word_count) * sizeof(uint32_t);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t p = 0; p < ref.page_count; ++p) {
      const size_t take = remaining < page_size_ ? remaining : page_size_;
      std::memcpy(dst, file_.PageData(ref.first_page + p), take);
      dst += take;
      remaining -= take;
    }
  }
  if (stats != nullptr) stats->disk_reads += ref.page_count;
  // A null-stats read is an uncounted, untimed scratch copy: skipping the
  // scheduler keeps the anonymous read from registering an actor clock
  // that would inflate the next run's merged elapsed time.
  if (io_ != nullptr && stats != nullptr) {
    // A spilled block is a sequential page run, so the re-read rides the
    // sequential discount — the reader identity is the file itself, never
    // coalescing with any pool's requests. The whole run is issued as an
    // async read schedule first, so on a multi-disk array the pages are
    // serviced in parallel and the joins below only pay each disk's
    // residual stall instead of one full synchronous read per page.
    for (uint32_t p = 0; p < ref.page_count; ++p) {
      io_->SubmitAsync(this, file_, ref.first_page + p, page_size_, stats);
    }
    for (uint32_t p = 0; p < ref.page_count; ++p) {
      io_->BlockingRead(this, file_, ref.first_page + p, page_size_, stats);
    }
  }
  if (span.active()) {
    if (io_ != nullptr && stats != nullptr) {
      span.set_modeled_range(modeled_before, io_->ActorClock(stats));
    }
    span.set_arg("pages", ref.page_count);
  }
}

uint64_t SpillFile::blocks_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_written_;
}

uint64_t SpillFile::pages_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_written_;
}

// --- SpilledResult ---------------------------------------------------------

void SpilledResult::MergeFrom(SpilledResult&& other) {
  RSJ_DCHECK(file == nullptr || other.file == nullptr ||
             file.get() == other.file.get());
  pair_count += other.pair_count;
  resident.Splice(std::move(other.resident));
  spilled.reserve(spilled.size() + other.spilled.size());
  for (const SpillFile::BlockRef& ref : other.spilled) {
    spilled.push_back(ref);
  }
  other.spilled.clear();
  other.pair_count = 0;
  if (file == nullptr) file = std::move(other.file);
}

std::vector<std::pair<uint32_t, uint32_t>> SpilledResult::CopyPairs(
    Statistics* stats) const {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  out.reserve(pair_count);
  SpilledResultReader reader(this, stats);
  std::span<const ResultPair> chunk;
  while (reader.Next(&chunk)) {
    for (const ResultPair& p : chunk) out.emplace_back(p.r, p.s);
  }
  return out;
}

// --- SpilledResultReader ---------------------------------------------------

SpilledResultReader::SpilledResultReader(const SpilledResult* result,
                                         Statistics* stats)
    : result_(result), stats_(stats) {
  RSJ_CHECK(result != nullptr);
}

bool SpilledResultReader::Next(std::span<const ResultPair>* out) {
  if (resident_index_ < result_->resident.chunk_count()) {
    const ChunkPtr& chunk =
        *(result_->resident.begin() +
          static_cast<std::ptrdiff_t>(resident_index_));
    ++resident_index_;
    *out = chunk->pairs();
    return true;
  }
  if (spilled_index_ < result_->spilled.size()) {
    RSJ_CHECK_MSG(result_->file != nullptr,
                  "spilled refs without a spill file");
    const SpillFile::BlockRef& ref = result_->spilled[spilled_index_];
    ++spilled_index_;
    result_->file->ReadBlock(ref, &scratch_, stats_);
    RSJ_DCHECK(scratch_.size() % 2 == 0);
    *out = std::span<const ResultPair>(
        reinterpret_cast<const ResultPair*>(scratch_.data()),
        scratch_.size() / 2);
    return true;
  }
  *out = {};
  return false;
}

void SpilledResultReader::Reset() {
  resident_index_ = 0;
  spilled_index_ = 0;
}

// --- SpillingSink ----------------------------------------------------------

SpillingSink::SpillingSink(ChunkArena arena, SpillFile* file,
                           ResidentBudget* budget, Statistics* stats)
    : ChunkedSink(std::move(arena)), file_(file), budget_(budget),
      stats_(stats) {
  RSJ_CHECK(file != nullptr && budget != nullptr && stats != nullptr);
}

void SpillingSink::ConsumeChunk(ChunkPtr chunk) {
  out_.pair_count += chunk->size();
  if (budget_->TryAdmit()) {
    out_.resident.Append(std::move(chunk));
    return;
  }
  const std::span<const ResultPair> pairs = chunk->pairs();
  out_.spilled.push_back(file_->AppendBlock(
      std::span<const uint32_t>(
          reinterpret_cast<const uint32_t*>(pairs.data()), pairs.size() * 2),
      stats_));
  // `chunk` dies here: the block recycles straight into the arena.
}

SpilledResult SpillingSink::TakeResult() {
  Flush();
  return std::move(out_);
}

// --- TupleSpiller ----------------------------------------------------------

TupleSpiller::TupleSpiller(uint32_t arity, size_t capacity_tuples,
                           SpillFile* file, ResidentBudget* budget,
                           Statistics* stats)
    : arity_(arity), capacity_tuples_(capacity_tuples), file_(file),
      budget_(budget), stats_(stats) {
  RSJ_CHECK(file != nullptr && budget != nullptr && stats != nullptr);
  RSJ_CHECK_MSG(arity >= 1 && capacity_tuples >= 1,
                "tuple spiller needs arity >= 1 and capacity >= 1");
  out_.arity = arity;
  current_.arity = arity;
  current_.flat.reserve(arity_ * capacity_tuples_);
}

void TupleSpiller::Append(const uint32_t* prefix, uint32_t prefix_len,
                          uint32_t id) {
  RSJ_DCHECK(prefix_len + 1 == arity_);
  current_.flat.insert(current_.flat.end(), prefix, prefix + prefix_len);
  current_.flat.push_back(id);
  ++out_.tuple_count;
  if (current_.tuple_count() >= capacity_tuples_) Seal();
}

void TupleSpiller::Seal() {
  if (current_.flat.empty()) return;
  if (budget_->TryAdmit()) {
    out_.resident.push_back(std::move(current_));
  } else {
    out_.spilled.push_back(file_->AppendBlock(
        std::span<const uint32_t>(current_.flat.data(), current_.flat.size()),
        stats_));
  }
  current_.arity = arity_;
  current_.flat.clear();
  current_.flat.reserve(arity_ * capacity_tuples_);
}

SpilledTupleSet TupleSpiller::Take() {
  Seal();
  SpilledTupleSet taken = std::move(out_);
  out_ = SpilledTupleSet{};
  out_.arity = arity_;
  return taken;
}

// --- SpilledTupleSet -------------------------------------------------------

void SpilledTupleSet::MergeFrom(SpilledTupleSet&& other) {
  RSJ_DCHECK(arity == 0 || other.arity == 0 || arity == other.arity);
  if (arity == 0) arity = other.arity;
  tuple_count += other.tuple_count;
  resident.reserve(resident.size() + other.resident.size());
  for (FrontierChunk& chunk : other.resident) {
    resident.push_back(std::move(chunk));
  }
  spilled.reserve(spilled.size() + other.spilled.size());
  for (const SpillFile::BlockRef& ref : other.spilled) {
    spilled.push_back(ref);
  }
  other.resident.clear();
  other.spilled.clear();
  other.tuple_count = 0;
  if (file == nullptr) file = std::move(other.file);
}

std::vector<std::vector<uint32_t>> SpilledTupleSet::CopyTuples(
    Statistics* stats) const {
  std::vector<std::vector<uint32_t>> out;
  out.reserve(tuple_count);
  ForEachTuple(
      [&](const uint32_t* tuple) {
        out.emplace_back(tuple, tuple + arity);
      },
      stats);
  return out;
}

}  // namespace rsj
