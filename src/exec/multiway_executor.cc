#include "exec/multiway_executor.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <span>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "io/io_scheduler.h"
#include "io/prefetcher.h"
#include "join/window_probe.h"
#include "obs/trace.h"

namespace rsj {

namespace {

// High-water mark of live intermediate tuples, summed over the workers: a
// worker's staged pairwise chunk and each of its intermediate stages count
// while their batch is being probed. This is the quantity
// frontier_peak_tuples reports.
struct FrontierGauge {
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> peak{0};
  // Run-wide mirror: every live tuple charges `tuple_bytes` (a flat
  // upper bound — the chain's final arity × 4) into the governor's
  // frontier category. Charge, not TryLease: the chunk capacity is what
  // bounds the frontier; the governor only observes it.
  MemoryGovernor* governor = nullptr;
  uint64_t tuple_bytes = 0;

  void Add(uint64_t n) {
    if (n == 0) return;
    const uint64_t now = live.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
    if (governor != nullptr) {
      governor->Charge(MemoryCategory::kFrontierTuples, n * tuple_bytes);
    }
  }
  void Sub(uint64_t n) {
    if (n == 0) return;
    live.fetch_sub(n, std::memory_order_relaxed);
    if (governor != nullptr) {
      governor->Release(MemoryCategory::kFrontierTuples, n * tuple_bytes);
    }
  }
};

// Reads `tree`'s root through the chain's pool and hints its children into
// `prefetcher`: every probe batch descends from this root, so its children
// are the phase's shared read frontier. The root itself is read
// synchronously right here to learn them — prefetching it too would only
// be consumed on the next statement with its full stall. The probes sort
// each page on read (§4.2), charged by the request that takes it over; when
// that is this one, it charges the root's sort, as the probe would have.
void HintProbeRoot(const RTree& tree, BufferPool* pages,
                   const Prefetcher* prefetcher, Statistics* stats) {
  const PagedFile& file = tree.file();
  const bool took_over = pages->Take(file, tree.root_page(), stats);
  const NodeView root = ViewNode(file, tree.root_page());
  if (took_over) {
    NodeCopy sorted;
    SortedByLowerX(root, &sorted, &stats->sort_comparisons);
  }
  if (root.is_leaf()) return;
  prefetcher->PrefetchSchedule(
      file, std::span<const PageId>(root.entries.ref, root.size()), stats);
}

void CheckChain(const std::vector<JoinRelation>& relations,
                const ParallelExecutorOptions& exec_options) {
  RSJ_CHECK_MSG(relations.size() >= 2, "chain join needs >= 2 relations");
  RSJ_CHECK_MSG(exec_options.chunk_capacity >= 1,
                "executor needs chunk_capacity >= 1");
  for (const JoinRelation& rel : relations) {
    RSJ_CHECK(rel.tree != nullptr && rel.rects != nullptr);
    RSJ_CHECK_MSG(rel.tree->options().page_size ==
                      relations[0].tree->options().page_size,
                  "all relations must share one page size");
  }
}

// What every worker's sink of one chain run shares: the relations, the
// context, the frontier gauge, and the spill file and resident budget of
// the final tuple set.
struct ChainRun {
  ChainRun(const std::vector<JoinRelation>& rels, const JoinOptions& join,
           const ParallelExecutorOptions& exec, bool collect_tuples,
           ExecContext& context)
      : relations(rels),
        options(join),
        ctx(context),
        arity(static_cast<uint32_t>(rels.size())),
        chunk_capacity(exec.chunk_capacity),
        collect(collect_tuples),
        spill(collect_tuples && exec.spill_results) {
    gauge.governor = ctx.governor();
    gauge.tuple_bytes = arity * sizeof(uint32_t);
    if (spill) {
      spill_file = std::make_shared<SpillFile>(SpillFile::Options{
          kPageSize4K, ctx.io(), ctx.tracer(), ctx.trace_pid()});
      spill_budget = std::make_unique<ResidentBudget>(
          exec.spill_budget_chunks, ctx.governor(),
          MemoryCategory::kResultChunks, TupleChunkBytes());
      spill_budget->AttachTracer(ctx.tracer(), ctx.trace_pid());
    }
  }

  ChainRun(const ChainRun&) = delete;
  ChainRun& operator=(const ChainRun&) = delete;

  // Bytes one resident final-tuple chunk (chunk_capacity tuples of the
  // chain's full arity) leases from the run-wide governor.
  uint64_t TupleChunkBytes() const {
    return static_cast<uint64_t>(chunk_capacity) * arity * sizeof(uint32_t);
  }

  const std::vector<JoinRelation>& relations;
  const JoinOptions& options;
  ExecContext& ctx;
  const uint32_t arity;  // relations in the chain
  const size_t chunk_capacity;
  const bool collect;
  const bool spill;
  FrontierGauge gauge;
  std::shared_ptr<SpillFile> spill_file;
  std::unique_ptr<ResidentBudget> spill_budget;
};

// One pairwise worker's sink. It stages chunk_capacity pairs, then extends
// them phase by phase in batches, on the worker's own thread and charged to
// the worker's Statistics (its actor clock): one WindowProbe run per staged
// chunk answers every window of phase 2. The last phase emits each final
// tuple as its probe finds it. In chains of 4 or more relations, an
// intermediate phase appends each extended tuple to the next phase's stage,
// which is probed whenever it holds chunk_capacity tuples and once more
// when the chunk is done. So a worker's live frontier is at most the staged
// chunk plus one full stage per intermediate phase. In a 2-relation chain
// the pairs are the final tuples. Final tuples are counted, collected, or
// handed to the worker's TupleSpiller.
class ChainSink final : public ResultSink {
 public:
  ChainSink(ChainRun* run, Statistics* stats)
      : ResultSink(ExternalStageTag{}),
        run_(run),
        stats_(stats),
        stage_(new ResultPair[run->chunk_capacity]),
        tuple_(run->arity) {
    SetStage(stage_.get(), run->chunk_capacity);
    for (uint32_t next = 2; next < run->arity; ++next) {
      phases_.push_back(std::make_unique<Phase>(
          *run->relations[next].tree, run->ctx.pool(), run->options, stats));
    }
    if (run->spill) {
      spiller_ = std::make_unique<TupleSpiller>(
          run->arity, run->chunk_capacity, run->spill_file.get(),
          run->spill_budget.get(), stats);
    }
  }

  // Extends the staged pairs, then seals the spiller: every timed write is
  // on the worker's clock before the pairwise executor retires the worker
  // (its Statistics dies with that run). A one-partition run flushes
  // twice (its engine, then the executor), so a flush adds to the share.
  void Flush() override {
    ResultSink::Flush();
    if (spiller_ != nullptr) spilled_.MergeFrom(spiller_->Take());
  }

  uint64_t final_tuples() const { return final_tuples_; }
  std::vector<std::vector<uint32_t>>& tuples() { return tuples_; }
  SpilledTupleSet& spilled() { return spilled_; }

 protected:
  void Consume(std::span<const ResultPair> batch) override {
    ExecContext& ctx = run_->ctx;
    IoScheduler* const io = ctx.io();
    TraceSpan span(ctx.tracer(), "exec", "probe_chunk", ctx.trace_pid(),
                   /*sampled=*/true);
    const uint64_t modeled_before =
        span.active() && io != nullptr ? io->ActorClock(stats_) : 0;
    if (run_->arity == 2) {
      for (const ResultPair& p : batch) {
        tuple_[0] = p.r;
        tuple_[1] = p.s;
        Emit();
      }
    } else {
      std::vector<uint32_t>& pairs = phases_.front()->stage;
      for (const ResultPair& p : batch) {
        pairs.push_back(p.r);
        pairs.push_back(p.s);
      }
      for (uint32_t next = 2; next < run_->arity; ++next) {
        if (!phases_[next - 2]->stage.empty()) ProbeStage(next);
      }
    }
    if (span.active()) {
      if (io != nullptr) {
        span.set_modeled_range(modeled_before, io->ActorClock(stats_));
      }
      span.set_arg("pairs", batch.size());
    }
  }

 private:
  // Probe phase `next` (2 <= next < arity): the probe of relation `next`
  // and its stage of tuples of length `next`, back to back.
  struct Phase {
    Phase(const RTree& tree, BufferPool* pages, const JoinOptions& options,
          Statistics* stats)
        : probe(tree, pages, options, stats) {}

    WindowProbe probe;
    std::vector<uint32_t> stage;
    std::vector<Rect> windows;  // of the batch being probed
  };

  // Probes relation `next` with the windows of the last elements of the
  // tuples staged for it, then empties the stage. Each match extends its
  // tuple by one: a final tuple is emitted, any other joins the next
  // phase's stage, which is probed as soon as it is full.
  void ProbeStage(uint32_t next) {
    Phase& phase = *phases_[next - 2];
    const std::vector<uint32_t>& tuples = phase.stage;
    const size_t count = tuples.size() / next;
    const std::vector<Rect>& prev_rects = *run_->relations[next - 1].rects;
    phase.windows.clear();
    for (size_t t = 0; t < count; ++t) {
      const uint32_t last = tuples[t * next + next - 1];
      RSJ_DCHECK(last < prev_rects.size());
      phase.windows.push_back(prev_rects[last]);
    }
    const bool final_phase = next + 1 == run_->arity;
    run_->gauge.Add(count);
    phase.probe.Run(
        std::span<const Rect>(phase.windows), [&](uint32_t i, uint32_t id) {
          const uint32_t* prefix = tuples.data() + size_t{i} * next;
          if (final_phase) {
            std::copy(prefix, prefix + next, tuple_.begin());
            tuple_[next] = id;
            Emit();
            return;
          }
          std::vector<uint32_t>& out = phases_[next - 1]->stage;
          out.insert(out.end(), prefix, prefix + next);
          out.push_back(id);
          if (out.size() == run_->chunk_capacity * (next + 1)) {
            ProbeStage(next + 1);
          }
        });
    run_->gauge.Sub(count);
    phase.stage.clear();
  }

  void Emit() {
    ++final_tuples_;
    if (spiller_ != nullptr) {
      spiller_->Append(tuple_.data(), run_->arity - 1, tuple_.back());
    } else if (run_->collect) {
      tuples_.push_back(tuple_);
    }
  }

  ChainRun* const run_;
  Statistics* const stats_;
  std::unique_ptr<ResultPair[]> stage_;
  std::vector<std::unique_ptr<Phase>> phases_;  // phases 2..arity-1
  std::vector<uint32_t> tuple_;                 // the final tuple emitted
  uint64_t final_tuples_ = 0;
  std::vector<std::vector<uint32_t>> tuples_;  // collected, unless spilling
  std::unique_ptr<TupleSpiller> spiller_;
  SpilledTupleSet spilled_;  // the spiller's share, once sealed
};

}  // namespace

ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    bool collect_tuples) {
  CheckChain(relations, exec_options);
  ChainRun run(relations, options, exec_options, collect_tuples, ctx);

  // Every probe phase is live from the first staged chunk, so all
  // probe-root children are hinted up front.
  Statistics coordinator;
  if (ctx.prefetcher() != nullptr) {
    for (size_t next = 2; next < relations.size(); ++next) {
      HintProbeRoot(*relations[next].tree, ctx.pool(), ctx.prefetcher(),
                    &coordinator);
    }
  }

  std::vector<std::unique_ptr<ChainSink>> sinks;
  ParallelJoinResult pairwise = RunParallelSpatialJoin(
      *relations[0].tree, *relations[1].tree, options, exec_options, ctx,
      [&](unsigned, Statistics* stats) {
        sinks.push_back(std::make_unique<ChainSink>(&run, stats));
        return sinks.back().get();
      });
  ctx.window().Retire(&coordinator);

  ParallelChainJoinResult result;
  result.pairwise_task_count = pairwise.task_count;
  result.partition_depth = pairwise.partition_depth;
  result.worker_stats = std::move(pairwise.worker_stats);
  result.total_stats.MergeFrom(pairwise.total_stats);
  result.total_stats.MergeFrom(coordinator);
  result.total_stats.frontier_peak_tuples =
      std::max(result.total_stats.frontier_peak_tuples,
               run.gauge.peak.load(std::memory_order_relaxed));
  for (const auto& sink : sinks) {
    result.tuple_count += sink->final_tuples();
    if (run.spill) {
      result.spilled_tuples.MergeFrom(std::move(sink->spilled()));
    } else if (result.tuples.empty()) {
      // Take the first sink's vector whole, so the largest (at one
      // thread, the only) tuple array never exists twice.
      result.tuples = std::move(sink->tuples());
    } else {
      std::vector<std::vector<uint32_t>>& tuples = sink->tuples();
      result.tuples.insert(result.tuples.end(),
                           std::make_move_iterator(tuples.begin()),
                           std::make_move_iterator(tuples.end()));
    }
  }

  // The final tuple set's residency: the spill budget's peak, or — for
  // collected tuple vectors — the whole output in chunk-capacity units
  // through an unbounded gauge that also mirrors the bytes into the
  // run-wide governor, so spill-on/off A/Bs compare one counter and one
  // ledger.
  if (run.spill) {
    result.spilled_tuples.arity = run.arity;
    result.spilled_tuples.file = std::move(run.spill_file);
    result.total_stats.NoteResultChunksResident(run.spill_budget->peak());
  } else if (collect_tuples) {
    ResidentBudget gauge(ResidentBudget::kUnbounded, ctx.governor(),
                         MemoryCategory::kResultChunks,
                         run.TupleChunkBytes());
    const uint64_t cap = exec_options.chunk_capacity;
    const uint64_t held = (result.tuple_count + cap - 1) / cap;
    for (uint64_t c = 0; c < held; ++c) gauge.Admit();
    result.total_stats.NoteResultChunksResident(gauge.peak());
  }
  return result;
}

ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples) {
  CheckChain(relations, exec_options);
  ExecContext ctx(options, relations[0].tree->options().page_size,
                  exec_options);
  ParallelChainJoinResult result = RunParallelChainSpatialJoin(
      relations, options, exec_options, ctx, collect_tuples);
  result.modeled_elapsed_micros = ctx.window().Close();
  return result;
}

MultiwayJoinResult RunChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    bool collect_tuples) {
  ParallelChainJoinResult run = RunParallelChainSpatialJoin(
      relations, options, ParallelExecutorOptions{}, collect_tuples);
  MultiwayJoinResult result;
  result.tuple_count = run.tuple_count;
  result.tuples = std::move(run.tuples);
  result.stats = run.total_stats;
  return result;
}

}  // namespace rsj
