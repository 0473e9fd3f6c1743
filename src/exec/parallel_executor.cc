#include "exec/parallel_executor.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "exec/exec_context.h"
#include "exec/partition.h"
#include "exec/result_sink.h"
#include "io/io_scheduler.h"
#include "io/prefetcher.h"
#include "join/spatial_join.h"
#include "obs/trace.h"

namespace rsj {

namespace {

// Everything one worker owns: counters, the engine bound to them, and the
// output sink. One thread at a time touches a worker: the task pool runs at
// most one task per worker slot (stealing moves tasks, not workers).
struct Worker {
  Statistics stats;
  std::unique_ptr<SpatialJoinEngine> engine;
  ResultSink* sink = nullptr;
  bool prepared = false;  // BeginPartitionedRun done (lazily, on its thread)
};

// The run's output, chosen once for every shape (one thread, degenerate
// plan, workers): the caller's per-worker sinks, or per worker a sink made
// here — spilling (collect_pairs with spill_results: one spill file and
// one resident budget for the run), materializing (collect_pairs: one
// measuring gauge) or counting — and the assembly of their outputs.
class RunOutput {
 public:
  RunOutput(const ParallelExecutorOptions& exec, const ExecContext& ctx,
            const SinkFactory& caller)
      : arena_(ctx.arena()),
        caller_(caller),
        collect_(!caller && exec.collect_pairs),
        spill_(collect_ && exec.spill_results) {
    // Bytes one resident result chunk leases from the run-wide governor.
    const uint64_t chunk_bytes =
        static_cast<uint64_t>(exec.chunk_capacity) * sizeof(ResultPair);
    if (spill_) {
      file_ = std::make_shared<SpillFile>(SpillFile::Options{
          kPageSize4K, ctx.io(), ctx.tracer(), ctx.trace_pid()});
      budget_ = std::make_unique<ResidentBudget>(
          exec.spill_budget_chunks, ctx.governor(),
          MemoryCategory::kResultChunks, chunk_bytes);
    } else if (collect_) {
      // An unbounded gauge MEASURES the resident peak (and mirrors it into
      // the governor while the run holds the chunks).
      budget_ = std::make_unique<ResidentBudget>(
          ResidentBudget::kUnbounded, ctx.governor(),
          MemoryCategory::kResultChunks, chunk_bytes);
    }
    if (budget_ != nullptr) {
      budget_->AttachTracer(ctx.tracer(), ctx.trace_pid());
    }
  }

  // The next worker's sink; a spilling or caller's sink charges its own
  // work to `stats`.
  ResultSink* Open(Statistics* stats) {
    const auto w = static_cast<unsigned>(sinks_.size());
    if (caller_) {
      sinks_.push_back(caller_(w, stats));
    } else {
      if (spill_) {
        owned_.push_back(std::make_unique<SpillingSink>(
            arena_, file_.get(), budget_.get(), stats));
      } else if (collect_) {
        owned_.push_back(
            std::make_unique<MaterializingSink>(arena_, budget_.get()));
      } else {
        owned_.push_back(std::make_unique<CountingSink>());
      }
      sinks_.push_back(owned_.back().get());
    }
    // A caller's sink may carry pairs of an earlier run.
    count_before_.push_back(sinks_.back()->count());
    return sinks_.back();
  }

  // A sink's final partial batch may issue timed work (spill writes, a
  // chain's probes), which belongs on its worker's clock inside the run's
  // modeled window.
  void Flush() {
    for (ResultSink* sink : sinks_) sink->Flush();
  }

  // Sums the run's pairs and moves the collected output into `result` —
  // chunk-list splicing: every pair stays in the block its worker wrote
  // it into, and only chunk pointers move.
  void Assemble(ParallelJoinResult* result) {
    for (size_t w = 0; w < sinks_.size(); ++w) {
      result->pair_count += sinks_[w]->count() - count_before_[w];
      if (spill_) {
        result->spilled.MergeFrom(
            static_cast<SpillingSink*>(sinks_[w])->TakeResult());
      } else if (collect_) {
        result->chunks.Splice(
            static_cast<MaterializingSink*>(sinks_[w])->TakeChunks());
      }
    }
    if (spill_) result->spilled.file = std::move(file_);
    // Materialized runs report the MEASURED resident high-water mark too
    // (their whole output, since nothing releases mid-run), so spill-on/off
    // A/Bs compare one counter.
    if (budget_ != nullptr) {
      result->total_stats.NoteResultChunksResident(budget_->peak());
    }
  }

 private:
  const ChunkArena arena_;
  const SinkFactory& caller_;
  const bool collect_;
  const bool spill_;
  std::shared_ptr<SpillFile> file_;
  std::unique_ptr<ResidentBudget> budget_;
  std::vector<std::unique_ptr<ResultSink>> owned_;
  std::vector<ResultSink*> sinks_;
  std::vector<uint64_t> count_before_;
};

// Subtree-pair hints from the partitioner: the plan *is* the order the
// workers will start tasks in, so its leading child pages are the
// system-wide read frontier — hint them before the workers launch.
void HintTaskFrontier(const RTree& r, const RTree& s,
                      const PartitionPlan& plan, Prefetcher* prefetcher,
                      Statistics* coordinator) {
  std::vector<PageId> r_pages;
  std::vector<PageId> s_pages;
  r_pages.reserve(plan.tasks.size());
  s_pages.reserve(plan.tasks.size());
  for (const PartitionTask& task : plan.tasks) {
    r_pages.push_back(task.er.ref);
    s_pages.push_back(task.es.ref);
  }
  prefetcher->PrefetchSchedule(r.file(), r_pages, s.file(), s_pages,
                               coordinator);
}

}  // namespace

ParallelJoinResult RunParallelSpatialJoin(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options, ExecContext& ctx,
    const SinkFactory& sinks) {
  RSJ_CHECK_MSG(r.options().page_size == s.options().page_size,
                "joined trees must share one page size");
  RSJ_CHECK_MSG(exec_options.chunk_capacity >= 1,
                "executor needs chunk_capacity >= 1");
  RSJ_CHECK_MSG(!exec_options.spill_results ||
                    exec_options.spill_budget_chunks >= 1,
                "executor needs spill_budget_chunks >= 1");
  ParallelJoinResult result;
  RunOutput output(exec_options, ctx, sinks);
  IoScheduler* const io = ctx.io();
  TraceRecorder* const tracer = ctx.tracer();
  const uint32_t pid = ctx.trace_pid();
  Statistics coordinator;
  std::vector<std::unique_ptr<Worker>> workers;
  const auto add_worker = [&]() -> Worker& {
    workers.push_back(std::make_unique<Worker>());
    workers.back()->sink = output.Open(&workers.back()->stats);
    return *workers.back();
  };
  // One sequential partition over the context's pool as a new worker.
  const auto run_one_partition = [&]() {
    Worker& worker = add_worker();
    SpatialJoinEngine engine(r, s, options, ctx.pool(), &worker.stats);
    engine.set_prefetcher(ctx.prefetcher());
    engine.Run(worker.sink);
    result.task_count = 1;
    result.worker_task_counts.push_back(1);
  };

  if (exec_options.num_threads <= 1) {
    // A one-thread context builds one LRU of buffer_bytes: the paper's
    // sequential join.
    run_one_partition();
  } else {
    const size_t target_tasks =
        std::max<size_t>(1, static_cast<size_t>(
                                exec_options.partition_multiplier) *
                                exec_options.num_threads);
    PartitionPlan plan;
    {
      // The coordinator's directory reads and take-overs warm the
      // context's pool for the workers.
      TraceSpan span(tracer, "exec", "partition_plan", pid);
      const uint64_t modeled_before =
          span.active() && io != nullptr ? io->ActorClock(&coordinator) : 0;
      plan = BuildPartitionPlan(r, s, options, target_tasks, ctx.pool(),
                                &coordinator);
      if (span.active()) {
        if (io != nullptr) {
          span.set_modeled_range(modeled_before,
                                 io->ActorClock(&coordinator));
        }
        span.set_arg("tasks", plan.tasks.size());
      }
    }
    if (plan.degenerate) {
      // A leaf root: one sequential partition; the coordinator's root
      // reads stay counted.
      run_one_partition();
    } else {
      result.task_count = plan.tasks.size();
      result.partition_depth = plan.depth;
      Prefetcher* const prefetcher = ctx.prefetcher();
      const size_t num_workers =
          std::min<size_t>(exec_options.num_threads, plan.tasks.size());
      for (size_t w = 0; w < num_workers; ++w) {
        Worker& worker = add_worker();
        worker.engine = std::make_unique<SpatialJoinEngine>(
            r, s, options, ctx.pool(), &worker.stats);
        worker.engine->set_prefetcher(prefetcher);
      }
      const auto run_task = [&](unsigned w, size_t task_index) {
        Worker& worker = *workers[w];
        TraceSpan span(tracer, "exec", "task", pid, /*sampled=*/true);
        const uint64_t modeled_before =
            span.active() && io != nullptr ? io->ActorClock(&worker.stats) : 0;
        if (!worker.prepared) {
          // Root fetch and z-order universe, counted on this worker and
          // done on its own thread.
          worker.engine->BeginPartitionedRun();
          worker.prepared = true;
        }
        const PartitionTask& task = plan.tasks[task_index];
        if (prefetcher != nullptr) {
          // The task frontier: both subtree roots, issued before the
          // engine's (ordered) fetches so they ride different disks.
          prefetcher->PrefetchPage(r.file(), task.er.ref, &worker.stats);
          prefetcher->PrefetchPage(s.file(), task.es.ref, &worker.stats);
        }
        worker.engine->ProcessPartition(task.er, task.es, worker.sink);
        if (span.active()) {
          if (io != nullptr) {
            span.set_modeled_range(modeled_before,
                                   io->ActorClock(&worker.stats));
          }
          span.set_arg("task", task_index);
        }
      };
      if (num_workers > 0) {
        if (prefetcher != nullptr) {
          HintTaskFrontier(r, s, plan, prefetcher, &coordinator);
        }
        result.worker_task_counts =
            ctx.tasks().Run(static_cast<unsigned>(num_workers),
                            plan.tasks.size(), run_task);
      }
    }
  }

  {
    TraceSpan span(tracer, "exec", "sink_flush", pid);
    span.set_arg("workers", workers.size());
    output.Flush();
  }
  // A chain's probes run inside its sinks, so the run's reads end here.
  ctx.ChargeUnconsumedPrefetches(&coordinator);
  result.total_stats.MergeFrom(coordinator);
  for (const auto& worker : workers) {
    result.worker_stats.push_back(worker->stats);
    result.total_stats.MergeFrom(worker->stats);
  }
  output.Assemble(&result);
  // Every timed write is on the clocks now, and the actors die with the
  // run: later runs reusing these Statistics addresses must start fresh.
  ctx.window().Retire(&coordinator);
  for (const auto& worker : workers) ctx.window().Retire(&worker->stats);
  return result;
}

ParallelJoinResult RunParallelSpatialJoin(
    const RTree& r, const RTree& s, const JoinOptions& options,
    const ParallelExecutorOptions& exec_options) {
  ExecContext ctx(options, r.options().page_size, exec_options);
  ParallelJoinResult result =
      RunParallelSpatialJoin(r, s, options, exec_options, ctx);
  result.modeled_elapsed_micros = ctx.window().Close();
  return result;
}

}  // namespace rsj
