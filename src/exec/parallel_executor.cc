#include "exec/parallel_executor.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "exec/partition.h"
#include "exec/result_sink.h"
#include "exec/task_scheduler.h"
#include "io/io_scheduler.h"
#include "io/prefetcher.h"
#include "join/join_runner.h"
#include "obs/trace.h"
#include "join/spatial_join.h"
#include "storage/node_cache.h"
#include "storage/shared_buffer_pool.h"

namespace rsj {

namespace {

// Everything one worker owns: counters, the engine bound to them and the
// shared pool, and the output sink. Only the owning worker thread touches
// a context (work stealing moves tasks, not contexts).
struct WorkerContext {
  Statistics stats;
  std::unique_ptr<SpatialJoinEngine> engine;
  std::unique_ptr<ResultSink> owned_sink;  // null with a sink factory
  ResultSink* sink = nullptr;
  uint64_t sink_count_before = 0;  // factory sinks may carry prior pairs
  bool prepared = false;  // BeginPartitionedRun done (lazily, on its thread)
};

// Degenerate shapes (leaf roots, single thread): one sequential partition.
// With a sink factory the results stream into the caller's sink 0. When
// `cache` is given (the degenerate-plan path, where the pool stack is
// already built), the run goes through it — so the shared pool, the node
// cache and the attached I/O model keep accounting; nullptr (the
// num_threads <= 1 early fallback) runs over a fresh private buffer like
// RunSpatialJoin always did. Spilling works exactly like the parallel
// path, over a run-private spill file.
// Bytes one resident result chunk leases from the run-wide governor.
uint64_t ResultChunkBytes(const ParallelExecutorOptions& exec_options) {
  return static_cast<uint64_t>(exec_options.chunk_capacity) *
         sizeof(ResultPair);
}

ParallelJoinResult SequentialFallback(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, const ChunkArena& arena,
    const SinkFactory* sink_factory, PageCache* cache = nullptr,
    NodeCache* nodes = nullptr, IoScheduler* borrowed_io = nullptr,
    uint64_t borrow_floor = 0) {
  ParallelJoinResult result;
  result.worker_task_counts.push_back(1);
  result.task_count = 1;
  Statistics stats;
  const auto run = [&](ResultSink* sink) {
    if (cache != nullptr) {
      SpatialJoinEngine engine(r, s, options, cache, &stats, nodes);
      engine.Run(sink);
    } else {
      RunSpatialJoin(r, s, options, sink, &stats);
    }
  };
  const uint64_t unit_bytes = ResultChunkBytes(exec_options);
  if (sink_factory != nullptr) {
    ResultSink* sink = (*sink_factory)(0);
    const uint64_t before = sink->count();
    run(sink);
    result.pair_count = sink->count() - before;
  } else if (exec_options.collect_pairs && exec_options.spill_results) {
    auto file = std::make_shared<SpillFile>(SpillFile::Options{
        exec_options.spill_page_size, exec_options.io_scheduler,
        exec_options.tracer, exec_options.trace_pid});
    ResidentBudget budget(exec_options.spill_budget_chunks,
                          exec_options.memory_governor,
                          MemoryCategory::kResultChunks, unit_bytes);
    budget.AttachTracer(exec_options.tracer, exec_options.trace_pid);
    SpillingSink sink(arena, file.get(), &budget, &stats);
    run(&sink);
    result.pair_count = sink.count();
    result.spilled = sink.TakeResult();
    result.spilled.file = std::move(file);
    stats.NoteResultChunksResident(budget.peak());
  } else if (exec_options.collect_pairs) {
    // An unbounded gauge MEASURES the resident peak (and mirrors it into
    // the governor while the run holds the chunks) instead of computing
    // it from final counts.
    ResidentBudget gauge(ResidentBudget::kUnbounded,
                         exec_options.memory_governor,
                         MemoryCategory::kResultChunks, unit_bytes);
    MaterializingSink sink(arena, &gauge);
    run(&sink);
    result.pair_count = sink.count();
    result.chunks = sink.TakeChunks();
    stats.NoteResultChunksResident(gauge.peak());
  } else {
    CountingSink sink;
    run(&sink);
    result.pair_count = sink.count();
  }
  if (borrowed_io != nullptr) {
    const uint64_t finish = borrowed_io->RetireActor(&stats);
    result.modeled_elapsed_micros =
        finish > borrow_floor ? finish - borrow_floor : 0;
  }
  result.worker_stats.push_back(stats);
  result.total_stats.MergeFrom(stats);
  return result;
}

ParallelJoinResult RunParallelSpatialJoinImpl(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, SharedBufferPool* shared_pool,
    NodeCache* node_cache, const SinkFactory* sink_factory) {
  RSJ_CHECK_MSG(r.options().page_size == s.options().page_size,
                "joined trees must share one page size");
  RSJ_CHECK_MSG(exec_options.chunk_capacity >= 1,
                "executor needs chunk_capacity >= 1");
  RSJ_CHECK_MSG(!exec_options.spill_results ||
                    exec_options.spill_budget_chunks >= 1,
                "executor needs spill_budget_chunks >= 1");
  // One arena recycles chunk blocks across all worker sinks (and, when the
  // caller passed one, across runs). The handle is copied into each sink;
  // the blocks of the returned chunk list stay alive either way.
  const ChunkArena arena =
      exec_options.chunk_arena != nullptr
          ? *exec_options.chunk_arena
          : ChunkArena(ChunkArena::Options{exec_options.chunk_capacity,
                                           /*max_free_chunks=*/1024});
  if (exec_options.num_threads <= 1) {
    return SequentialFallback(r, s, options, exec_options, arena,
                              sink_factory);
  }

  ParallelJoinResult result;
  Statistics coordinator;
  IoScheduler* const io = exec_options.io_scheduler;
  // With a sink factory (one stage of an enclosing pipeline) or with
  // own_io_lifecycle off (a session on an engine-shared scheduler), the
  // scheduler is borrowed: no drain, no global clock merge — this run
  // retires its own actors instead and measures elapsed against the
  // floor at entry.
  const bool owns_io = io != nullptr && sink_factory == nullptr &&
                       exec_options.own_io_lifecycle;
  const bool borrowed_io = io != nullptr && !owns_io;
  const uint64_t io_clock_before = owns_io ? io->NowMicros() : 0;
  const uint64_t io_batches_before = owns_io ? io->io_batches() : 0;
  const uint64_t io_floor_before = borrowed_io ? io->FloorMicros() : 0;

  // Run-wide spill context: one serialized result file and one resident
  // budget shared by every worker's spilling sink.
  const bool spill_on = exec_options.collect_pairs &&
                        exec_options.spill_results && sink_factory == nullptr;
  const uint64_t result_unit_bytes = ResultChunkBytes(exec_options);
  std::shared_ptr<SpillFile> spill_file;
  std::unique_ptr<ResidentBudget> spill_budget;
  // Measuring gauge of the materialized (non-spilling) collected path:
  // shared by every worker's MaterializingSink, reported as the run's
  // resident peak and mirrored into the governor.
  std::unique_ptr<ResidentBudget> resident_gauge;
  if (spill_on) {
    spill_file = std::make_shared<SpillFile>(
        SpillFile::Options{exec_options.spill_page_size, io,
                           exec_options.tracer, exec_options.trace_pid});
    spill_budget = std::make_unique<ResidentBudget>(
        exec_options.spill_budget_chunks, exec_options.memory_governor,
        MemoryCategory::kResultChunks, result_unit_bytes);
    spill_budget->AttachTracer(exec_options.tracer, exec_options.trace_pid);
  } else if (sink_factory == nullptr && exec_options.collect_pairs) {
    resident_gauge = std::make_unique<ResidentBudget>(
        ResidentBudget::kUnbounded, exec_options.memory_governor,
        MemoryCategory::kResultChunks, result_unit_bytes);
    resident_gauge->AttachTracer(exec_options.tracer, exec_options.trace_pid);
  }

  // The shared pool (and the decode cache over it) is created before
  // partitioning so the coordinator's directory reads and decodes warm it
  // for the workers.
  std::unique_ptr<SharedBufferPool> owned_shared;
  std::unique_ptr<NodeCache> owned_nodes;
  SharedBufferPool* shared = shared_pool;
  if (shared == nullptr) {
    owned_shared = std::make_unique<SharedBufferPool>(
        SharedBufferPool::Options{options.buffer_bytes, r.options().page_size,
                                  options.eviction_policy,
                                  exec_options.pool_shards});
    shared = owned_shared.get();
  }
  NodeCache* nodes = node_cache;
  if (nodes == nullptr && exec_options.node_cache) {
    owned_nodes = std::make_unique<NodeCache>(
        shared, NodeCache::Options{exec_options.node_cache_capacity,
                                   exec_options.pool_shards});
    nodes = owned_nodes.get();
  }
  if (io != nullptr) shared->AttachIoScheduler(io);
  result.used_node_cache = nodes != nullptr;

  // One prefetcher over the shared pool serves everyone.
  std::unique_ptr<Prefetcher> prefetcher;
  if (exec_options.prefetch) {
    prefetcher = std::make_unique<Prefetcher>(
        shared, Prefetcher::Options{exec_options.prefetch_ahead});
  }

  const size_t target_tasks =
      std::max<size_t>(1, static_cast<size_t>(
                              exec_options.partition_multiplier) *
                              exec_options.num_threads);
  PartitionPlan plan;
  {
    TraceSpan span(exec_options.tracer, "exec", "partition_plan",
                   exec_options.trace_pid);
    const uint64_t modeled_before =
        span.active() && io != nullptr ? io->ActorClock(&coordinator) : 0;
    plan = BuildPartitionPlan(r, s, options, target_tasks, shared,
                              &coordinator, nodes);
    if (span.active()) {
      if (io != nullptr) {
        span.set_modeled_range(modeled_before, io->ActorClock(&coordinator));
      }
      span.set_arg("tasks", plan.tasks.size());
    }
  }
  if (plan.degenerate) {
    // The sequential run replaces the partitioned one over the
    // already-built cache stack (shared pool / node cache / modeled I/O
    // stay in the loop); the coordinator's root reads/decodes happened
    // and stay counted, and the node-cache flag keeps describing what was
    // actually set up.
    ParallelJoinResult fallback = SequentialFallback(
        r, s, options, exec_options, arena, sink_factory, shared, nodes,
        borrowed_io ? io : nullptr, io_floor_before);
    fallback.total_stats.MergeFrom(coordinator);
    fallback.used_node_cache = result.used_node_cache;
    if (owns_io) {
      io->Drain();
      fallback.total_stats.io_batches += io->io_batches() - io_batches_before;
      fallback.modeled_elapsed_micros =
          io->SynchronizeClocks() - io_clock_before;
    } else if (borrowed_io) {
      const uint64_t finish = io->RetireActor(&coordinator);
      fallback.modeled_elapsed_micros =
          std::max(fallback.modeled_elapsed_micros,
                   finish > io_floor_before ? finish - io_floor_before : 0);
    }
    return fallback;
  }
  result.task_count = plan.tasks.size();
  result.partition_depth = plan.depth;
  if (plan.tasks.empty()) {
    result.total_stats.MergeFrom(coordinator);
    if (owns_io) {
      io->Drain();
      result.total_stats.io_batches += io->io_batches() - io_batches_before;
      result.modeled_elapsed_micros =
          io->SynchronizeClocks() - io_clock_before;
    } else if (borrowed_io) {
      const uint64_t finish = io->RetireActor(&coordinator);
      result.modeled_elapsed_micros =
          finish > io_floor_before ? finish - io_floor_before : 0;
    }
    return result;
  }

  // Subtree-pair hints from the partitioner: the plan *is* the order the
  // workers will start tasks in, so its leading child pages are the
  // system-wide read frontier — hint them before the workers launch.
  if (prefetcher != nullptr) {
    std::vector<PageId> r_pages;
    std::vector<PageId> s_pages;
    r_pages.reserve(plan.tasks.size());
    s_pages.reserve(plan.tasks.size());
    for (const PartitionTask& task : plan.tasks) {
      r_pages.push_back(task.er.ref);
      s_pages.push_back(task.es.ref);
    }
    prefetcher->PrefetchSchedule(r.file(), r_pages, s.file(), s_pages,
                                        &coordinator);
  }

  const unsigned workers = static_cast<unsigned>(
      std::min<size_t>(exec_options.num_threads, plan.tasks.size()));
  std::vector<std::unique_ptr<WorkerContext>> contexts;
  contexts.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    auto ctx = std::make_unique<WorkerContext>();
    ctx->engine = std::make_unique<SpatialJoinEngine>(r, s, options, shared,
                                                      &ctx->stats, nodes);
    ctx->engine->set_prefetcher(prefetcher.get());
    if (sink_factory != nullptr) {
      ctx->sink = (*sink_factory)(w);
      ctx->sink_count_before = ctx->sink->count();
    } else {
      if (spill_on) {
        ctx->owned_sink = std::make_unique<SpillingSink>(
            arena, spill_file.get(), spill_budget.get(), &ctx->stats);
      } else if (exec_options.collect_pairs) {
        ctx->owned_sink =
            std::make_unique<MaterializingSink>(arena, resident_gauge.get());
      } else {
        ctx->owned_sink = std::make_unique<CountingSink>();
      }
      ctx->sink = ctx->owned_sink.get();
    }
    contexts.push_back(std::move(ctx));
  }

  const auto task_body = [&](unsigned w, size_t task_index) {
    WorkerContext& ctx = *contexts[w];
    TraceSpan span(exec_options.tracer, "exec", "task", exec_options.trace_pid,
                   /*sampled=*/true);
    const uint64_t modeled_before =
        span.active() && io != nullptr ? io->ActorClock(&ctx.stats) : 0;
    if (!ctx.prepared) {
      // Root fetch and z-order universe, counted on this worker and
      // done on its own thread.
      ctx.engine->BeginPartitionedRun();
      ctx.prepared = true;
    }
    const PartitionTask& task = plan.tasks[task_index];
    if (prefetcher != nullptr) {
      // The task frontier: both subtree roots, issued before the
      // engine's (ordered) fetches so they ride different disks.
      prefetcher->PrefetchPage(r.file(), task.er.ref, &ctx.stats);
      prefetcher->PrefetchPage(s.file(), task.es.ref, &ctx.stats);
    }
    ctx.engine->ProcessPartition(task.er, task.es, ctx.sink);
    if (span.active()) {
      if (io != nullptr) {
        span.set_modeled_range(modeled_before, io->ActorClock(&ctx.stats));
      }
      span.set_arg("task", task_index);
    }
  };
  if (exec_options.task_runner) {
    // The engine's shared task pool (or any external runner) executes the
    // plan; worker-slot exclusivity is the runner's contract.
    result.worker_task_counts =
        exec_options.task_runner(workers, plan.tasks.size(), task_body);
  } else {
    TaskScheduler scheduler(workers, plan.tasks.size());
    result.worker_task_counts = scheduler.Run(task_body);
  }

  // Flush before the clock merge: a spilling sink's final partial chunk
  // may issue timed writes, which belong inside the modeled window.
  {
    TraceSpan span(exec_options.tracer, "exec", "sink_flush",
                   exec_options.trace_pid);
    span.set_arg("workers", workers);
    for (unsigned w = 0; w < workers; ++w) contexts[w]->sink->Flush();
  }

  if (owns_io) {
    io->Drain();
    coordinator.io_batches += io->io_batches() - io_batches_before;
    // Parallel workers advanced per-actor clocks; their merge (max) is the
    // run's modeled elapsed time — CPU in parallel, I/O overlapped.
    result.modeled_elapsed_micros = io->SynchronizeClocks() - io_clock_before;
  }

  result.total_stats.MergeFrom(coordinator);
  for (unsigned w = 0; w < workers; ++w) {
    WorkerContext& ctx = *contexts[w];
    result.pair_count += ctx.sink->count() - ctx.sink_count_before;
    if (spill_on) {
      result.spilled.MergeFrom(
          static_cast<SpillingSink*>(ctx.sink)->TakeResult());
    } else if (sink_factory == nullptr && exec_options.collect_pairs) {
      // The merge is chunk-list splicing: every pair stays in the block
      // its producing worker wrote it into, and only chunk pointers move.
      result.chunks.Splice(
          static_cast<MaterializingSink*>(ctx.sink)->TakeChunks());
    }
    result.worker_stats.push_back(ctx.stats);
    result.total_stats.MergeFrom(ctx.stats);
  }
  if (spill_on) {
    result.spilled.file = std::move(spill_file);
    result.total_stats.NoteResultChunksResident(spill_budget->peak());
  } else if (sink_factory == nullptr && exec_options.collect_pairs) {
    // Materialized runs report the MEASURED resident high-water mark
    // (equal to the collected chunk count here, since nothing releases
    // mid-run), so spill-on/off A/Bs compare one counter and the
    // governor saw the residency while the run held it.
    result.total_stats.NoteResultChunksResident(resident_gauge->peak());
  }
  if (borrowed_io) {
    // Retire this run's actors: later runs reusing these Statistics
    // addresses must start from the floor, not from our clocks. The
    // retirement happens after every sink flush and spill Take — all
    // timed writes are on the clocks by now.
    uint64_t finish = io->RetireActor(&coordinator);
    for (unsigned w = 0; w < workers; ++w) {
      finish = std::max(finish, io->RetireActor(&contexts[w]->stats));
    }
    result.modeled_elapsed_micros =
        finish > io_floor_before ? finish - io_floor_before : 0;
  }
  return result;
}

}  // namespace

ParallelJoinResult RunParallelSpatialJoinWith(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, SharedBufferPool* shared_pool,
    NodeCache* node_cache) {
  return RunParallelSpatialJoinImpl(r, s, options, exec_options, shared_pool,
                                    node_cache, /*sink_factory=*/nullptr);
}

ParallelJoinResult RunParallelSpatialJoinInto(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, SharedBufferPool* shared_pool,
    NodeCache* node_cache, const SinkFactory& sink_factory) {
  return RunParallelSpatialJoinImpl(r, s, options, exec_options, shared_pool,
                                    node_cache, &sink_factory);
}

ParallelJoinResult RunParallelSpatialJoin(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options) {
  return RunParallelSpatialJoinWith(r, s, options, exec_options,
                                    /*shared_pool=*/nullptr,
                                    /*node_cache=*/nullptr);
}

}  // namespace rsj
