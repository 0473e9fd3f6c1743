#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"

namespace rsj {

namespace {

IoScheduler::Options IoWithTracer(IoScheduler::Options io,
                                  TraceRecorder* tracer) {
  io.tracer = tracer;
  return io;
}

std::string SessionLabel(const QuerySpec& spec, uint64_t query_id) {
  return spec.label.empty() ? "q" + std::to_string(query_id) : spec.label;
}

}  // namespace

void QuerySession::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return state_ == SessionState::kFinished || state_ == SessionState::kShed;
  });
}

SessionState QuerySession::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

const QueryOutcome& QuerySession::outcome() const {
  std::lock_guard<std::mutex> lock(mu_);
  RSJ_CHECK_MSG(state_ == SessionState::kFinished,
                "outcome() before the session finished");
  return outcome_;
}

AdmissionOutcome QuerySession::admission() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_;
}

uint64_t QuerySession::queue_wall_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (admission_ != AdmissionOutcome::kQueued) return 0;
  return admit_wall_ > submit_wall_ ? admit_wall_ - submit_wall_ : 0;
}

QueryEngine::QueryEngine(const Options& options)
    : options_(options),
      governor_(MemoryGovernor::Options{options.memory_budget_bytes}),
      io_(IoWithTracer(options.io, options.tracer)),
      pool_(options.pool),
      task_pool_(TaskPool::Options{options.pool_threads, options.tracer}),
      query_log_(options.query_log) {
  governor_.AttachTracer(options.tracer);
  pool_.AttachIoScheduler(&io_);
}

QueryEngine::~QueryEngine() { WaitAll(); }

QuerySession* QueryEngine::Submit(QuerySpec spec) {
  RSJ_CHECK_MSG(spec.relations.size() >= 2, "a query joins >= 2 relations");
  auto owned = std::unique_ptr<QuerySession>(new QuerySession());
  QuerySession* session = owned.get();
  session->spec_ = std::move(spec);

  session->reserved_bytes_ = options_.session_reserve_bytes;

  std::lock_guard<std::mutex> lock(mu_);
  session->query_id_ = telemetry_.sessions_submitted;
  session->submit_wall_ = WallMicros();
  sessions_.push_back(std::move(owned));
  ++telemetry_.sessions_submitted;

  // Admission: a free slot plus the governor's reservation lease. With
  // nothing running the lease is forced (Charge) so an undersized budget
  // degrades to serial execution instead of deadlock.
  const bool slot_free = running_ < options_.max_concurrent_sessions;
  const bool leased =
      slot_free &&
      (running_ == 0
           ? (governor_.Charge(MemoryCategory::kSessionReservations,
                               session->reserved_bytes_),
              true)
           : governor_.TryLease(MemoryCategory::kSessionReservations,
                                session->reserved_bytes_));
  if (leased) {
    session->admission_ = AdmissionOutcome::kImmediate;
    AdmitLocked(session);
  } else if (queue_.size() < options_.queue_limit) {
    {
      std::lock_guard<std::mutex> session_lock(session->mu_);
      session->admission_ = AdmissionOutcome::kQueued;
    }
    queue_.push_back(session);
    ++telemetry_.sessions_queued;
  } else {
    ++telemetry_.sessions_shed;
    {
      std::lock_guard<std::mutex> session_lock(session->mu_);
      session->admission_ = AdmissionOutcome::kShed;
      session->state_ = SessionState::kShed;
      session->cv_.notify_all();
    }
    // A shed session never runs, so its flight record is written here.
    const uint32_t pid = static_cast<uint32_t>(session->query_id_ + 1);
    const std::string label = SessionLabel(session->spec_, session->query_id_);
    if (options_.tracer != nullptr && options_.tracer->enabled()) {
      options_.tracer->SetProcessName(pid, label);
      options_.tracer->Instant("engine", "shed", pid);
    }
    QueryLogRecord rec;
    rec.query_id = session->query_id_;
    rec.label = label;
    rec.is_chain = session->spec_.relations.size() > 2;
    rec.admission = AdmissionOutcome::kShed;
    query_log_.Append(std::move(rec));
  }
  return session;
}

void QueryEngine::AdmitLocked(QuerySession* session) {
  ++telemetry_.sessions_admitted;
  ++running_;
  telemetry_.peak_running = std::max(telemetry_.peak_running, running_);
  {
    std::lock_guard<std::mutex> session_lock(session->mu_);
    session->state_ = SessionState::kRunning;
    session->admit_wall_ = WallMicros();
    // A queued session's wait is a first-class span on its own track:
    // an explicit 'X' event [submit, admit] (both stamps are on the
    // tracer's clock whenever a tracer is attached).
    if (session->admission_ == AdmissionOutcome::kQueued &&
        options_.tracer != nullptr && options_.tracer->enabled()) {
      TraceEvent event;
      event.category = "engine";
      event.name = "queue";
      event.phase = 'X';
      event.pid = static_cast<uint32_t>(session->query_id_ + 1);
      event.ts_micros = session->submit_wall_;
      event.dur_micros = session->admit_wall_ > session->submit_wall_
                             ? session->admit_wall_ - session->submit_wall_
                             : 0;
      options_.tracer->Emit(event);
    }
  }
  session->driver_ = std::thread([this, session] { RunSession(session); });
}

void QueryEngine::RunSession(QuerySession* session) {
  QuerySpec& spec = session->spec_;
  TraceRecorder* const tracer = options_.tracer;
  const uint32_t pid = static_cast<uint32_t>(session->query_id_ + 1);
  const std::string label = SessionLabel(spec, session->query_id_);
  if (tracer != nullptr && tracer->enabled()) {
    tracer->SetThreadName("driver-q" + std::to_string(session->query_id_));
    tracer->SetProcessName(pid, label);
  }
  const uint64_t run_start_wall = WallMicros();
  if (spec.before_run) spec.before_run();

  JoinOptions join = spec.join;
  ParallelExecutorOptions exec = options_.exec_base;
  exec.num_threads = options_.session_threads;
  exec.collect_pairs = spec.collect;
  exec.io_scheduler = &io_;
  exec.memory_governor = &governor_;
  exec.tracer = tracer;
  exec.chunk_arena = nullptr;  // a private arena per session

  QueryOutcome outcome;
  outcome.is_chain = spec.relations.size() > 2;
  if (spec.use_planner) {
    TraceSpan plan_span(tracer, "engine", "plan", pid);
    outcome.planned = true;
    outcome.plan = outcome.is_chain
                       ? PlanChainJoin(spec.relations, options_.planner)
                       : PlanPairJoin(*spec.relations[0].tree,
                                      *spec.relations[1].tree,
                                      options_.planner);
    ApplyPlan(outcome.plan, &join, &exec);
  }

  {
    TraceSpan exec_span(tracer, "engine", "execute", pid);
    // The session runs on a borrowed scheduler: its modeled service time
    // is measured against the floor at entry, so the span's modeled
    // range is [floor, floor + modeled_elapsed].
    const uint64_t modeled_floor =
        exec_span.active() ? io_.FloorMicros() : 0;
    // The session is lent the engine's pool and task pool; on a lent pool
    // its window retires only its own actors (the engine folds the clocks
    // once per batch).
    ExecContext ctx(join, spec.relations[0].tree->options().page_size, exec,
                    LentResources{&pool_, &task_pool_, pid});
    if (outcome.is_chain) {
      outcome.chain = RunParallelChainSpatialJoin(spec.relations, join, exec,
                                                  ctx, spec.collect);
      outcome.chain.modeled_elapsed_micros = ctx.window().Close();
      outcome.result_count = outcome.chain.tuple_count;
      outcome.modeled_elapsed_micros = outcome.chain.modeled_elapsed_micros;
    } else {
      outcome.pair = RunParallelSpatialJoin(*spec.relations[0].tree,
                                            *spec.relations[1].tree, join,
                                            exec, ctx);
      outcome.pair.modeled_elapsed_micros = ctx.window().Close();
      outcome.result_count = outcome.pair.pair_count;
      outcome.modeled_elapsed_micros = outcome.pair.modeled_elapsed_micros;
    }
    if (exec_span.active()) {
      exec_span.set_modeled_range(
          modeled_floor, modeled_floor + outcome.modeled_elapsed_micros);
      exec_span.set_arg("results", outcome.result_count);
    }
  }

  QueryLogRecord rec;
  rec.query_id = session->query_id_;
  rec.label = label;
  if (outcome.planned) rec.plan = outcome.plan.Describe();
  rec.planned = outcome.planned;
  rec.is_chain = outcome.is_chain;
  rec.admission = session->admission();
  rec.queue_wall_micros = session->queue_wall_micros();
  rec.wall_micros = WallMicros() - run_start_wall;
  rec.modeled_micros = outcome.modeled_elapsed_micros;
  rec.result_count = outcome.result_count;
  rec.governor_peak_bytes = governor_.peak_bytes();
  query_log_.Append(std::move(rec));

  {
    std::lock_guard<std::mutex> session_lock(session->mu_);
    session->outcome_ = std::move(outcome);
    session->state_ = SessionState::kFinished;
    session->cv_.notify_all();
  }
  OnSessionDone(session);
}

void QueryEngine::OnSessionDone(QuerySession* session) {
  std::lock_guard<std::mutex> lock(mu_);
  governor_.Release(MemoryCategory::kSessionReservations,
                    session->reserved_bytes_);
  --running_;
  ++telemetry_.sessions_finished;
  // FIFO admission of the queue head. The head may outsize the freed
  // lease (another category grew meanwhile, or it reserves more than the
  // finisher did); it then waits for the next completion — and is forced
  // through once nothing runs at all.
  while (!queue_.empty() && running_ < options_.max_concurrent_sessions) {
    QuerySession* next = queue_.front();
    const bool leased =
        running_ == 0
            ? (governor_.Charge(MemoryCategory::kSessionReservations,
                                next->reserved_bytes_),
               true)
            : governor_.TryLease(MemoryCategory::kSessionReservations,
                                 next->reserved_bytes_);
    if (!leased) break;
    queue_.pop_front();
    AdmitLocked(next);
  }
  all_done_cv_.notify_all();
}

uint64_t QueryEngine::WaitAll() {
  std::vector<std::thread> drivers;
  uint64_t floor_before = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_cv_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
    for (auto& session : sessions_) {
      if (session->driver_.joinable()) {
        drivers.push_back(std::move(session->driver_));
      }
    }
    floor_before = batch_floor_;
  }
  for (std::thread& t : drivers) t.join();

  // Fold the batch: merge every session's retired clocks into the floor,
  // measure the batch makespan.
  uint64_t merged = 0;
  {
    TraceSpan drain_span(options_.tracer, "engine", "drain", 0);
    merged = io_.SynchronizeClocks();
    if (drain_span.active()) {
      drain_span.set_modeled_range(floor_before, merged);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  telemetry_.last_makespan_micros =
      merged > batch_floor_ ? merged - batch_floor_ : 0;
  batch_floor_ = merged;
  return telemetry_.last_makespan_micros;
}

QueryEngine::Telemetry QueryEngine::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry_;
}

uint64_t QueryEngine::WallMicros() const {
  if (options_.tracer != nullptr) return options_.tracer->NowWallMicros();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void QueryEngine::SnapshotMetrics(MetricsRegistry* out) const {
  SnapshotGovernor(governor_, out);
  SnapshotTaskPool(task_pool_, out);
  SnapshotIo(io_, out);
  query_log_.SnapshotMetrics(out);
}

}  // namespace rsj
