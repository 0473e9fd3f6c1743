#include "exec/multiway_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <thread>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "exec/frontier_channel.h"
#include "io/io_scheduler.h"
#include "io/prefetcher.h"
#include "storage/node_cache.h"

namespace rsj {

namespace {

// High-water mark of live intermediate tuples: counted from the moment a
// tuple enters a producer's chunk (partially filled writer chunks
// included — only the workers' constant preallocated staging batches are
// outside the gauge) until the consumer finished extending every tuple of
// the chunk. This is the quantity frontier_peak_tuples reports — the
// proof that the pipeline's frontier memory stays bounded.
struct FrontierGauge {
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> peak{0};
  // Run-wide mirror: every live tuple charges `tuple_bytes` (a flat
  // upper bound — the chain's final arity × 4) into the governor's
  // frontier category. Charge, not TryLease: channel backpressure is
  // what bounds the frontier; the governor only observes it.
  MemoryGovernor* governor = nullptr;
  uint64_t tuple_bytes = 0;

  void Add(uint64_t n) {
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
    live.fetch_sub(n, std::memory_order_relaxed);
    if (governor != nullptr) {
      governor->Release(MemoryCategory::kFrontierTuples, n * tuple_bytes);
    }
  }
};

// Accumulates same-arity tuples into fixed-capacity FrontierChunks and
// pushes each one into the downstream channel as it fills (single
// producer thread; the push blocks while the channel is full).
class FrontierWriter {
 public:
  FrontierWriter(uint32_t arity, size_t capacity_tuples,
                 FrontierChannel* channel, FrontierGauge* gauge)
      : arity_(arity),
        capacity_tuples_(capacity_tuples),
        channel_(channel),
        gauge_(gauge) {
    RSJ_DCHECK(channel != nullptr);
    Reset();
  }

  // Appends a whole batch of 2-tuples — the pairwise phase's output.
  // Bulk-inserts chunk-sized segments so the staging-batch → chunk hop
  // is one contiguous copy per segment, not a call per pair.
  void AppendPairBatch(std::span<const ResultPair> batch) {
    RSJ_DCHECK(arity_ == 2);
    static_assert(sizeof(ResultPair) == 2 * sizeof(uint32_t),
                  "ResultPair must be layout-identical to flat [r, s]");
    size_t offset = 0;
    while (offset < batch.size()) {
      const size_t space = capacity_tuples_ - current_.tuple_count();
      const size_t take = std::min(space, batch.size() - offset);
      const uint32_t* raw =
          reinterpret_cast<const uint32_t*>(batch.data() + offset);
      current_.flat.insert(current_.flat.end(), raw, raw + 2 * take);
      gauge_->Add(take);
      offset += take;
      MaybePush();
    }
  }

  // Appends prefix ++ [id] — a probe phase's extended tuple.
  void AppendExtended(const uint32_t* prefix, uint32_t prefix_len,
                      uint32_t id) {
    RSJ_DCHECK(prefix_len + 1 == arity_);
    current_.flat.insert(current_.flat.end(), prefix, prefix + prefix_len);
    current_.flat.push_back(id);
    gauge_->Add(1);
    MaybePush();
  }

  // Pushes the final partial chunk, if any.
  void Flush() {
    if (!current_.flat.empty()) Push();
  }

 private:
  void MaybePush() {
    if (current_.tuple_count() >= capacity_tuples_) Push();
  }

  void Push() {
    // The tuples were gauged as they entered the chunk; the consumer
    // un-gauges the whole chunk after processing it.
    channel_->Push(std::move(current_));
    Reset();
  }

  void Reset() {
    current_.arity = arity_;
    current_.flat.clear();
    current_.flat.reserve(arity_ * capacity_tuples_);
  }

  uint32_t arity_;
  size_t capacity_tuples_;
  FrontierChannel* channel_;
  FrontierGauge* gauge_;
  FrontierChunk current_;
};

// Reads `tree`'s root through the chain's decode cache and hints its
// children into `prefetcher`: every frontier tuple descends from this
// root, so its children are the phase's shared read frontier. The root
// itself is read synchronously right here to learn them — prefetching it
// too would only be consumed on the next statement with its full stall.
void HintProbeRoot(const RTree& tree, NodeCache* nodes,
                   const Prefetcher* prefetcher, Statistics* stats) {
  const PagedFile& file = tree.file();
  const std::shared_ptr<const DecodedNode> root =
      nodes->Fetch(file, tree.root_page(), stats).decoded;
  if (root->node.is_leaf()) return;
  std::vector<PageId> children;
  children.reserve(root->node.entries.size());
  for (const Entry& e : root->node.entries) children.push_back(e.ref);
  prefetcher->PrefetchSchedule(file, children, stats);
}

void CheckChain(const std::vector<JoinRelation>& relations,
                const ParallelExecutorOptions& exec_options) {
  RSJ_CHECK_MSG(relations.size() >= 2, "chain join needs >= 2 relations");
  RSJ_CHECK_MSG(exec_options.chunk_capacity >= 1,
                "executor needs chunk_capacity >= 1");
  RSJ_CHECK_MSG(exec_options.channel_bound >= 1,
                "executor needs channel_bound >= 1");
  for (const JoinRelation& rel : relations) {
    RSJ_CHECK(rel.tree != nullptr && rel.rects != nullptr);
    RSJ_CHECK_MSG(rel.tree->options().page_size ==
                      relations[0].tree->options().page_size,
                  "all relations must share one page size");
  }
}

ParallelChainJoinResult SequentialChainFallback(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    bool collect_tuples) {
  ParallelChainJoinResult result;
  MultiwayJoinResult sequential =
      RunChainSpatialJoin(relations, options, collect_tuples);
  result.tuple_count = sequential.tuple_count;
  result.tuples = std::move(sequential.tuples);
  result.worker_stats.push_back(sequential.stats);
  result.total_stats.MergeFrom(sequential.stats);
  result.pairwise_task_count = 1;
  result.probe_chunk_counts.assign(
      relations.size() > 2 ? relations.size() - 2 : 0, 1);
  result.worker_probe_chunks.assign(1, result.probe_chunk_counts.size());
  return result;
}

// Everything one probe worker owns. Only the owning thread touches it
// while a phase runs (work stealing moves chunk indices, not workers).
struct ProbeWorker {
  Statistics stats;
  uint64_t chunks = 0;
  std::vector<uint32_t> matches;  // per-probe scratch
  // Extended tuples: the phase's next frontier when materialized, the
  // collected final tuples when pipelined.
  std::vector<std::vector<uint32_t>> tuples;
  uint64_t final_tuples = 0;              // pipelined last phase: emitted
  std::unique_ptr<TupleSpiller> spiller;  // last phase, when spilling
  SpilledTupleSet spilled;                // the spiller's share, once taken
  std::thread thread;                     // pipelined teams only

  // Appends prefix ++ [id] to the spiller when there is one, else (when
  // `keep`) to `tuples`.
  void Emit(const uint32_t* prefix, uint32_t prefix_len, uint32_t id,
            bool keep) {
    if (spiller != nullptr) {
      spiller->Append(prefix, prefix_len, id);
    } else if (keep) {
      std::vector<uint32_t> longer;
      longer.reserve(prefix_len + 1);
      longer.assign(prefix, prefix + prefix_len);
      longer.push_back(id);
      tuples.push_back(std::move(longer));
    }
  }
};

// The chain-only state one run shares across its phases and workers: the
// spill file and resident budget of the final tuple set, and the
// coordinator's counters (probe-root hints). The pool, cache, prefetcher
// and modeled-I/O window are the run's ExecContext; both formulations use
// it the same way.
struct ChainRun {
  ChainRun(const std::vector<JoinRelation>& relations,
           const ParallelExecutorOptions& exec_options, bool collect_tuples,
           ExecContext& context)
      : exec(exec_options),
        ctx(context),
        arity(static_cast<uint32_t>(relations.size())),
        spill_on(collect_tuples && exec_options.spill_results) {
    if (spill_on) {
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
    return static_cast<uint64_t>(exec.chunk_capacity) * arity *
           sizeof(uint32_t);
  }

  // Gives a final-phase worker its tuple spiller over the shared file and
  // budget, charging its writes to the worker's own clock.
  void AttachSpiller(ProbeWorker* worker) const {
    worker->spiller = std::make_unique<TupleSpiller>(
        arity, exec.chunk_capacity, spill_file.get(), spill_budget.get(),
        &worker->stats);
  }

  // Probes `tree` with the window of object `last` of `prev_rects` — the
  // frontier tuple's last element; the matches land in worker->matches.
  void ProbeTuple(const RTree& tree, const std::vector<Rect>& prev_rects,
                  const JoinOptions& options, uint32_t last,
                  ProbeWorker* worker) const {
    RSJ_DCHECK(last < prev_rects.size());
    worker->matches.clear();
    ProbeChainWindow(tree, ctx.pool(), ctx.nodes(), options,
                     prev_rects[last], &worker->stats, &worker->matches);
  }

  // Runs `body` as one probe chunk of `worker` under a sampled
  // probe_chunk span whose modeled range is the worker's actor clock.
  template <typename Body>
  void RunProbeChunk(ProbeWorker* worker, const char* arg, uint64_t value,
                     const Body& body) const {
    ++worker->chunks;
    IoScheduler* const io = ctx.io();
    TraceSpan span(ctx.tracer(), "exec", "probe_chunk", ctx.trace_pid(),
                   /*sampled=*/true);
    const uint64_t modeled_before =
        span.active() && io != nullptr ? io->ActorClock(&worker->stats) : 0;
    body();
    if (span.active()) {
      if (io != nullptr) {
        span.set_modeled_range(modeled_before, io->ActorClock(&worker->stats));
      }
      span.set_arg(arg, value);
    }
  }

  // The chain's actors die with the run; every timed write (the spillers'
  // sealing Take() included) must be on their clocks by now.
  void RetireWorkers(const std::vector<std::unique_ptr<ProbeWorker>>& workers) {
    ctx.window().Retire(&coordinator);
    for (const auto& worker : workers) ctx.window().Retire(&worker->stats);
  }

  // Merges the coordinator and every probe worker into the result. Worker
  // i fills slot i % num_threads (the materialized formulation has one
  // worker per slot; the pipelined one a team of them per phase).
  void MergeWorkers(std::vector<std::unique_ptr<ProbeWorker>>* workers,
                    ParallelChainJoinResult* result) {
    result->total_stats.MergeFrom(coordinator);
    result->worker_probe_chunks.assign(exec.num_threads, 0);
    for (size_t i = 0; i < workers->size(); ++i) {
      ProbeWorker& worker = *(*workers)[i];
      const size_t w = i % exec.num_threads;
      result->worker_probe_chunks[w] += worker.chunks;
      result->worker_stats[w].MergeFrom(worker.stats);
      result->total_stats.MergeFrom(worker.stats);
      result->tuple_count += worker.final_tuples;
      if (worker.spiller != nullptr) {
        result->spilled_tuples.MergeFrom(std::move(worker.spilled));
      }
      if (worker.tuples.empty()) continue;
      if (result->tuples.empty()) {
        result->tuples = std::move(worker.tuples);
      } else {
        result->tuples.reserve(result->tuples.size() + worker.tuples.size());
        for (auto& tuple : worker.tuples) {
          result->tuples.push_back(std::move(tuple));
        }
      }
    }
  }

  // Reports the final tuple set's residency: the spill budget's peak, or
  // — for collected tuple vectors — the whole output in chunk-capacity
  // units through an unbounded gauge that also mirrors the bytes into the
  // run-wide governor, so spill-on/off A/Bs compare one counter and one
  // ledger.
  void NoteTupleSet(bool collect_tuples, ParallelChainJoinResult* result) {
    if (spill_on) {
      result->spilled_tuples.arity = arity;
      if (result->spilled_tuples.file == nullptr) {
        // The 2-relation re-wrap keeps the pairwise executor's file.
        result->spilled_tuples.file = std::move(spill_file);
      }
      result->total_stats.NoteResultChunksResident(spill_budget->peak());
    } else if (collect_tuples) {
      ResidentBudget gauge(ResidentBudget::kUnbounded, ctx.governor(),
                           MemoryCategory::kResultChunks, TupleChunkBytes());
      const uint64_t cap = exec.chunk_capacity;
      const uint64_t held = (result->tuple_count + cap - 1) / cap;
      for (uint64_t c = 0; c < held; ++c) gauge.Admit();
      result->total_stats.NoteResultChunksResident(gauge.peak());
    }
  }

  const ParallelExecutorOptions& exec;
  ExecContext& ctx;
  const uint32_t arity;  // relations in the chain
  const bool spill_on;
  std::shared_ptr<SpillFile> spill_file;
  std::unique_ptr<ResidentBudget> spill_budget;
  Statistics coordinator;  // probe-root prefetch hints
};

// Folds the pairwise phase's telemetry and counters into the chain result.
void FoldPairwise(const ParallelJoinResult& pairwise, unsigned num_threads,
                  ParallelChainJoinResult* result) {
  result->pairwise_task_count = pairwise.task_count;
  result->partition_depth = pairwise.partition_depth;
  result->total_stats.MergeFrom(pairwise.total_stats);
  for (size_t w = 0; w < pairwise.worker_stats.size(); ++w) {
    result->worker_stats[w % num_threads].MergeFrom(pairwise.worker_stats[w]);
  }
}

// The barrier formulation, which the planner selects below
// pipeline_tuple_floor: every probe phase barriers on the whole frontier
// of its predecessor, so frontier_peak_tuples is the largest intermediate
// result — and no channel machinery is paid for small frontiers.
ParallelChainJoinResult RunMaterializedChain(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples,
    ExecContext& ctx) {
  const unsigned num_threads = exec_options.num_threads;
  ParallelChainJoinResult result;
  result.worker_stats.resize(num_threads);

  // One buffer and one decode cache for the whole chain (the context's):
  // the pairwise phase warms both, the probe phases keep hitting the same
  // directory pages for every frontier tuple.
  ChainRun chain(relations, exec_options, collect_tuples, ctx);
  IoScheduler* const io = ctx.io();

  // Phase 1: the partitioned pairwise executor over relations 0 ⋈ 1,
  // materializing the pairs as the initial tuple frontier.
  ParallelExecutorOptions pair_exec = exec_options;
  pair_exec.collect_pairs = true;
  // spill_results governs the FINAL tuple set only. With three or more
  // relations the pairwise pairs are an intermediate frontier and must come
  // back as chunks; in a 2-relation chain they ARE the final tuples, so the
  // pairwise executor runs in its own bounded spill_results form and its
  // result is re-wrapped below.
  const bool pairwise_is_final = relations.size() == 2;
  pair_exec.spill_results = chain.spill_on && pairwise_is_final;
  ParallelJoinResult pairwise = RunParallelSpatialJoin(
      *relations[0].tree, *relations[1].tree, options, pair_exec, ctx);
  FoldPairwise(pairwise, num_threads, &result);

  std::vector<std::vector<uint32_t>> frontier;
  if (pairwise_is_final && chain.spill_on) {
    // No probe phases. A ResultPair block is layout-identical to a flat
    // [r, s] tuple run, so the pairwise executor's bounded SpilledResult
    // transfers into the tuple set by reference: spilled page runs move
    // as-is, and only the resident pair chunks (never more than the spill
    // budget of them) re-wrap as arity-2 frontier chunks.
    result.spilled_tuples.arity = 2;
    result.spilled_tuples.tuple_count = pairwise.spilled.pair_count;
    for (const ChunkPtr& chunk : pairwise.spilled.resident) {
      const std::span<const ResultPair> pairs = chunk->pairs();
      FrontierChunk tuples;
      tuples.arity = 2;
      const uint32_t* words = reinterpret_cast<const uint32_t*>(pairs.data());
      tuples.flat.assign(words, words + pairs.size() * 2);
      result.spilled_tuples.resident.push_back(std::move(tuples));
    }
    result.spilled_tuples.spilled = std::move(pairwise.spilled.spilled);
    result.spilled_tuples.file = std::move(pairwise.spilled.file);
  } else {
    frontier.reserve(pairwise.chunks.pair_count());
    pairwise.chunks.ForEachPair([&frontier](const ResultPair& p) {
      frontier.push_back({p.r, p.s});
    });
  }
  pairwise.chunks.clear();

  // Probe workers, reused across phases so their counters and actor
  // clocks carry from phase to phase.
  std::vector<std::unique_ptr<ProbeWorker>> workers;
  workers.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    workers.push_back(std::make_unique<ProbeWorker>());
  }

  // The barrier between the phases: every probe worker (and the hint
  // coordinator) starts no earlier than the pairwise completion.
  std::vector<const Statistics*> probe_actors = {&chain.coordinator};
  for (const auto& worker : workers) probe_actors.push_back(&worker->stats);
  ctx.window().Barrier(probe_actors);

  uint64_t frontier_peak = 0;

  // Phase 2..n-1: fan the frontier out in contiguous chunks; every chunk
  // is one schedulable unit, sized so that partition_multiplier × threads
  // chunks exist (the same "k" as the pairwise partitioner).
  for (size_t next = 2; next < relations.size(); ++next) {
    const RTree& probe_tree = *relations[next].tree;
    const std::vector<Rect>& prev_rects = *relations[next - 1].rects;
    frontier_peak = std::max<uint64_t>(frontier_peak, frontier.size());
    if (frontier.empty()) {
      result.probe_chunk_counts.push_back(0);
      continue;
    }
    // A zero partition_multiplier must not zero the divisor, and the
    // ceiling division is computed overflow-safely (a huge frontier with
    // `size + target - 1` would wrap before dividing).
    const size_t target_chunks = std::max<size_t>(
        1, static_cast<size_t>(exec_options.partition_multiplier) *
               num_threads);
    const size_t chunk_size = std::max<size_t>(
        1, frontier.size() / target_chunks +
               (frontier.size() % target_chunks != 0 ? 1 : 0));
    const size_t num_chunks =
        frontier.size() / chunk_size + (frontier.size() % chunk_size != 0);
    result.probe_chunk_counts.push_back(num_chunks);

    // One coordinator-side hint of the probe tree's hot top serves every
    // worker of the phase.
    if (ctx.prefetcher() != nullptr) {
      HintProbeRoot(probe_tree, ctx.nodes(), ctx.prefetcher(),
                    &chain.coordinator);
    }

    // The last phase's extensions are final tuples: under spill_results
    // they go through per-worker spillers instead of the next frontier.
    if (next + 1 == relations.size() && chain.spill_on) {
      for (auto& worker : workers) chain.AttachSpiller(worker.get());
    }

    const unsigned phase_workers =
        static_cast<unsigned>(std::min<size_t>(num_threads, num_chunks));
    const auto phase_body = [&](unsigned w, size_t chunk) {
      ProbeWorker* const worker = workers[w].get();
      chain.RunProbeChunk(worker, "chunk", chunk, [&]() {
        const size_t begin = chunk * chunk_size;
        const size_t end = std::min(frontier.size(), begin + chunk_size);
        for (size_t t = begin; t < end; ++t) {
          const std::vector<uint32_t>& tuple = frontier[t];
          chain.ProbeTuple(probe_tree, prev_rects, options, tuple.back(),
                           worker);
          for (const uint32_t id : worker->matches) {
            worker->Emit(tuple.data(), static_cast<uint32_t>(tuple.size()),
                         id, /*keep=*/true);
          }
        }
      });
    };
    {
      TraceSpan phase_span(ctx.tracer(), "exec", "probe_phase",
                           ctx.trace_pid());
      phase_span.set_arg("chunks", num_chunks);
      uint64_t phase_begin = 0;
      if (phase_span.active() && io != nullptr) {
        phase_begin = io->ActorClock(&workers[0]->stats);
        for (unsigned w = 1; w < phase_workers; ++w) {
          phase_begin =
              std::min(phase_begin, io->ActorClock(&workers[w]->stats));
        }
      }
      ctx.RunTasks(phase_workers, num_chunks, phase_body);
      if (phase_span.active() && io != nullptr) {
        uint64_t phase_end = phase_begin;
        for (unsigned w = 0; w < phase_workers; ++w) {
          phase_end = std::max(phase_end, io->ActorClock(&workers[w]->stats));
        }
        phase_span.set_modeled_range(phase_begin, phase_end);
      }
    }

    // Concatenate the worker outputs into the next frontier (moves only).
    size_t total = 0;
    for (const auto& worker : workers) total += worker->tuples.size();
    std::vector<std::vector<uint32_t>> extended;
    extended.reserve(total);
    for (const auto& worker : workers) {
      for (auto& tuple : worker->tuples) extended.push_back(std::move(tuple));
      worker->tuples.clear();
    }
    frontier = std::move(extended);
  }

  // Seal the last phase's partial chunks before the actors retire, so
  // their timed writes (charged to each worker's stats/clock) are in the
  // model.
  for (auto& worker : workers) {
    if (worker->spiller != nullptr) worker->spilled = worker->spiller->Take();
  }
  chain.RetireWorkers(workers);
  chain.MergeWorkers(&workers, &result);
  result.total_stats.frontier_peak_tuples =
      std::max(result.total_stats.frontier_peak_tuples, frontier_peak);
  if (chain.spill_on) {
    result.tuple_count = result.spilled_tuples.tuple_count;
  } else {
    result.tuple_count = frontier.size();
    if (collect_tuples) result.tuples = std::move(frontier);
  }
  chain.NoteTupleSet(collect_tuples, &result);
  return result;
}

// The streaming formulation: one bounded channel per phase boundary, one
// dedicated worker team per probe phase, chunks handed downstream as they
// fill. No phase ever sees its predecessor's whole frontier.
ParallelChainJoinResult RunPipelinedChain(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, bool collect_tuples,
    ExecContext& ctx) {
  const unsigned num_threads = exec_options.num_threads;
  const size_t num_probe_phases = relations.size() - 2;
  ParallelChainJoinResult result;
  result.used_pipeline = true;
  result.worker_stats.resize(num_threads);

  ChainRun chain(relations, exec_options, collect_tuples, ctx);

  // Every probe phase is live from the first pushed chunk, so all
  // probe-root children are hinted upfront.
  if (ctx.prefetcher() != nullptr) {
    for (size_t next = 2; next < relations.size(); ++next) {
      HintProbeRoot(*relations[next].tree, ctx.nodes(), ctx.prefetcher(),
                    &chain.coordinator);
    }
  }

  FrontierGauge gauge;
  gauge.governor = ctx.governor();
  gauge.tuple_bytes = relations.size() * sizeof(uint32_t);
  // channels[k] feeds probe phase k (probing relations[k + 2]). Producers:
  // the pairwise workers for k = 0, team k-1's workers otherwise.
  std::vector<std::unique_ptr<FrontierChannel>> channels;
  channels.reserve(num_probe_phases);
  for (size_t k = 0; k < num_probe_phases; ++k) {
    channels.push_back(std::make_unique<FrontierChannel>(
        exec_options.channel_bound, num_threads));
  }

  // Probe teams: phase k's workers pop from channels[k] as chunks arrive
  // and push extended tuples towards phase k+1 (or collect final tuples).
  // Worker w of phase k is workers[k * num_threads + w].
  // No unwind teardown (retire + join) guards the spawn loops: the library
  // is exception-free by policy (common/logging.h — invariant failures
  // abort), so any exception escaping here is already fatal.
  std::vector<std::unique_ptr<ProbeWorker>> workers;
  workers.reserve(num_probe_phases * num_threads);
  for (size_t k = 0; k < num_probe_phases; ++k) {
    // Captured as pointers: the loop variables die before the threads do.
    const RTree* const probe_tree = relations[k + 2].tree;
    const std::vector<Rect>* const prev_rects = relations[k + 1].rects;
    const bool last_phase = k + 1 == num_probe_phases;
    FrontierChannel* const input = channels[k].get();
    FrontierChannel* const output =
        last_phase ? nullptr : channels[k + 1].get();
    const uint32_t out_arity = static_cast<uint32_t>(k + 3);
    for (unsigned w = 0; w < num_threads; ++w) {
      auto worker = std::make_unique<ProbeWorker>();
      if (last_phase && chain.spill_on) chain.AttachSpiller(worker.get());
      ProbeWorker* const self = worker.get();
      worker->thread = std::thread([&, self, probe_tree, prev_rects, input,
                                    output, out_arity, last_phase, k, w]() {
        TraceRecorder* const tracer = ctx.tracer();
        if (tracer != nullptr && tracer->enabled()) {
          tracer->SetThreadName("probe-p" + std::to_string(k) + "-w" +
                                std::to_string(w));
        }
        std::unique_ptr<FrontierWriter> writer;
        if (output != nullptr) {
          writer = std::make_unique<FrontierWriter>(
              out_arity, exec_options.chunk_capacity, output, &gauge);
        }
        FrontierChunk chunk;
        while (input->Pop(&chunk)) {
          const size_t tuples = chunk.tuple_count();
          chain.RunProbeChunk(self, "tuples", tuples, [&]() {
            for (size_t t = 0; t < tuples; ++t) {
              const uint32_t* tuple = chunk.tuple(t);
              chain.ProbeTuple(*probe_tree, *prev_rects, options,
                               tuple[chunk.arity - 1], self);
              for (const uint32_t id : self->matches) {
                if (last_phase) {
                  ++self->final_tuples;
                  self->Emit(tuple, chunk.arity, id, collect_tuples);
                } else {
                  writer->AppendExtended(tuple, chunk.arity, id);
                }
              }
            }
          });
          gauge.Sub(tuples);
        }
        if (writer != nullptr) writer->Flush();
        if (output != nullptr) output->RetireProducer();
        if (self->spiller != nullptr) {
          // Seal + (possibly) spill the final partial chunk on this
          // worker's own thread, so its timed writes land before the
          // coordinator retires the actors.
          self->spilled = self->spiller->Take();
        }
      });
      workers.push_back(std::move(worker));
    }
  }

  // Phase 1: the partitioned pairwise executor, each worker's sink
  // converting completed pair batches into frontier chunks pushed into
  // channel 0 — blocking when the probes lag (backpressure), so the
  // pairwise phase can never run away from its consumers.
  std::vector<std::unique_ptr<FrontierWriter>> pair_writers;
  std::vector<std::unique_ptr<BatchedCallbackSink>> pair_sinks;
  pair_writers.reserve(num_threads);
  pair_sinks.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    pair_writers.push_back(std::make_unique<FrontierWriter>(
        /*arity=*/2, exec_options.chunk_capacity, channels[0].get(),
        &gauge));
    FrontierWriter* const writer = pair_writers.back().get();
    pair_sinks.push_back(std::make_unique<BatchedCallbackSink>(
        [writer](std::span<const ResultPair> batch) {
          writer->AppendPairBatch(batch);
        }));
  }
  ParallelJoinResult pairwise = RunParallelSpatialJoin(
      *relations[0].tree, *relations[1].tree, options, exec_options, ctx,
      [&pair_sinks](unsigned w) { return pair_sinks[w].get(); });
  FoldPairwise(pairwise, num_threads, &result);

  // The pairwise phase is done: flush the partial chunks and retire the
  // producers — closure then cascades phase by phase as each channel
  // drains, and joining the teams in order rides the cascade down.
  for (unsigned w = 0; w < num_threads; ++w) {
    pair_writers[w]->Flush();
    channels[0]->RetireProducer();
  }
  for (auto& worker : workers) worker->thread.join();

  chain.RetireWorkers(workers);
  for (size_t k = 0; k < num_probe_phases; ++k) {
    result.probe_chunk_counts.push_back(
        static_cast<size_t>(channels[k]->chunks_pushed()));
  }
  chain.MergeWorkers(&workers, &result);
  result.total_stats.frontier_peak_tuples =
      std::max(result.total_stats.frontier_peak_tuples,
               gauge.peak.load(std::memory_order_relaxed));
  chain.NoteTupleSet(collect_tuples, &result);
  return result;
}

}  // namespace

ParallelChainJoinResult RunParallelChainSpatialJoin(
    const std::vector<JoinRelation>& relations, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    bool collect_tuples) {
  CheckChain(relations, exec_options);
  if (exec_options.num_threads <= 1) {
    return SequentialChainFallback(relations, options, collect_tuples);
  }
  // A 2-relation chain has no probe phases — nothing to pipeline; both
  // formulations reduce to the pairwise executor.
  if (exec_options.pipelined && relations.size() > 2) {
    return RunPipelinedChain(relations, options, exec_options, collect_tuples,
                             ctx);
  }
  return RunMaterializedChain(relations, options, exec_options,
                              collect_tuples, ctx);
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

}  // namespace rsj
