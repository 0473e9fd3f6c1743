// The serving layer: many concurrent spatial-join queries over shared
// immutable trees, one set of run-wide resources.
//
// Standalone executors own everything per run — pool, I/O scheduler,
// thread team, spill budgets. A serving engine cannot: N concurrent
// queries would multiply every budget by N and stomp each other's modeled
// clocks. The QueryEngine instead owns ONE of each and
// leases them to sessions:
//
//   * one BufferPool of kSharedPoolShards locked shards spans every
//     session (queries share hot directory pages and their take-overs,
//     exactly like a database buffer),
//   * one IoScheduler models the disk array for all sessions; each
//     session runs on an ExecContext (exec/exec_context.h) lent the
//     engine's pool and task pool, whose window therefore retires only
//     the session's own actor clocks and reports its latency against the
//     batch floor — never folding another session's timeline (the engine
//     synchronizes the clocks once per WaitAll batch),
//   * one TaskPool (exec/task_pool.h) executes every session's
//     subtree-pair tasks on a fixed oversubscribed thread set with
//     round-robin fairness,
//   * one MemoryGovernor (engine/memory_governor.h) is the run-wide
//     ledger: session admission leases kSessionReservations bytes,
//     result/spill/frontier budgets mirror into their categories, and
//     the per-category peaks are the engine's memory audit.
//
// ADMISSION CONTROL: Submit() admits a session when a running slot is
// free AND the governor grants its reservation lease; otherwise it queues
// (up to queue_limit) and is admitted in FIFO order as sessions finish;
// past the queue limit it is SHED immediately (state kShed, no result).
// A session is always admitted when nothing is running, so the engine
// cannot deadlock on an undersized budget.
//
// PLANNING: unless the spec opts out, the cost-based planner
// (engine/planner.h) picks the SJ variant, spill budget and prefetch
// window per query from the analytic estimator; the chosen plan and its
// estimator inputs are kept in the outcome for audit.
//
// ISOLATION: every session's Statistics live in its own result structs —
// per-query counters never bleed (engine_test proves it) — while the
// governor and scheduler aggregate the shared-resource view.

#ifndef RSJ_ENGINE_QUERY_ENGINE_H_
#define RSJ_ENGINE_QUERY_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/memory_governor.h"
#include "engine/planner.h"
#include "exec/exec_context.h"
#include "exec/multiway_executor.h"
#include "exec/parallel_executor.h"
#include "exec/task_pool.h"
#include "io/io_scheduler.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"

namespace rsj {

// One query: a pairwise join (2 relations) or a chain join (>= 3).
struct QuerySpec {
  // The relations, left to right. All trees must share one page size
  // (the engine pool's), and must stay valid until the session finished.
  std::vector<JoinRelation> relations;
  // Display name in the query log and the trace's process track; empty =
  // "q<id>".
  std::string label;
  // Per-query join configuration. buffer_bytes is ignored (the engine
  // pool is the buffer); the algorithm is overridden when planning.
  JoinOptions join;
  // Materialize the result (pairs / tuples) instead of counting.
  bool collect = true;
  // false: run `join` + the engine's base exec options verbatim, skipping
  // the planner (for A/B runs and algorithm-pinned tests).
  bool use_planner = true;
  // Test hook: runs on the session's driver thread after admission,
  // before planning/execution. Lets tests hold admitted sessions at a
  // barrier to make queueing and shedding deterministic.
  std::function<void()> before_run;
};

enum class SessionState {
  kQueued,    // submitted, waiting for an admission slot
  kRunning,   // admitted; driver thread executing
  kFinished,  // outcome valid
  kShed,      // rejected at submit (queue full); no outcome
};

struct QueryOutcome {
  // Result count: pairs for 2-way queries, tuples for chains.
  uint64_t result_count = 0;
  // Filled for 2-way queries...
  ParallelJoinResult pair;
  // ...and for chains. Each carries its own Statistics — per-session
  // counters are never shared with other sessions.
  ParallelChainJoinResult chain;
  bool is_chain = false;
  // The plan that ran, when the planner was used.
  bool planned = false;
  PlanChoice plan;
  // Modeled service latency: this session's retired-clock peak minus the
  // scheduler floor at the batch start (0 without modeled I/O).
  uint64_t modeled_elapsed_micros = 0;
};

class QueryEngine;

// Handle to one submitted query. Engine-owned lifetime: valid until the
// engine is destroyed.
class QuerySession {
 public:
  // Blocks until the session finished (or was shed at submit).
  void Wait() const;
  SessionState state() const;
  // Valid after Wait() on a non-shed session.
  const QueryOutcome& outcome() const;

  // Submission order, starting at 0; the session's trace pid is
  // query_id() + 1 (pid 0 is the engine itself).
  uint64_t query_id() const { return query_id_; }
  // How admission disposed of this query (stable once Submit returned).
  AdmissionOutcome admission() const;
  // Wall micros spent queued (submit -> admission); 0 when immediate or
  // shed. Stable once the session runs or finished.
  uint64_t queue_wall_micros() const;

 private:
  friend class QueryEngine;
  QuerySession() = default;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  SessionState state_ = SessionState::kQueued;
  QuerySpec spec_;
  QueryOutcome outcome_;
  std::thread driver_;
  uint64_t query_id_ = 0;
  AdmissionOutcome admission_ = AdmissionOutcome::kImmediate;
  uint64_t submit_wall_ = 0;  // engine clock at Submit
  uint64_t admit_wall_ = 0;   // engine clock at admission
  // The governor lease this session holds while admitted (set once at
  // Submit).
  uint64_t reserved_bytes_ = 0;
};

class QueryEngine {
 public:
  struct Options {
    // The shared page buffer spanning all sessions; its resident pages
    // keep their take-over.
    BufferPool::Options pool{.shard_count = kSharedPoolShards};
    // The modeled disk array all sessions run on.
    IoScheduler::Options io;
    // Run-wide memory budget handed to the governor (0 = unlimited).
    uint64_t memory_budget_bytes = 0;
    // Bytes leased (kSessionReservations) per admitted session — the
    // admission-control unit.
    uint64_t session_reserve_bytes = 1 << 20;
    // Sessions running at once; later submits queue.
    size_t max_concurrent_sessions = 4;
    // Queued sessions beyond this are shed at submit.
    size_t queue_limit = 64;
    // TaskPool worker threads shared by all sessions.
    unsigned pool_threads = 4;
    // Worker slots per session run; every run, one-thread runs included,
    // reads through the engine's pool.
    unsigned session_threads = 2;
    // Planner thresholds (see engine/planner.h).
    PlannerOptions planner;
    // Base executor options for every session: chunk sizing, partition
    // multiplier. The engine sets num_threads and collect_pairs, and the
    // planner its decisions; it sets the resource fields per session too:
    // io_scheduler, memory_governor and tracer to its own, and
    // chunk_arena to null (each session recycles through a private
    // arena).
    ParallelExecutorOptions exec_base;
    // Span/counter sink (obs/trace.h) shared by every layer the engine
    // drives: sessions get per-query pids, the scheduler/governor emit on
    // pid 0. Not owned; must outlive the engine. nullptr = no tracing.
    TraceRecorder* tracer = nullptr;
    // Query-log retention and slow-query threshold (obs/query_log.h).
    QueryLog::Options query_log;
  };

  explicit QueryEngine(const Options& options);
  // Waits for every session and folds the last batch's clocks.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Submits a query. Never blocks on execution: the returned session is
  // running, queued, or (queue full) already kShed.
  QuerySession* Submit(QuerySpec spec);

  // Blocks until every submitted session finished, then folds the
  // batch's actor clocks into the floor.
  // Returns the batch makespan: modeled micros from the batch start to
  // the last session's completion (0 without modeled I/O).
  uint64_t WaitAll();

  struct Telemetry {
    uint64_t sessions_submitted = 0;
    uint64_t sessions_admitted = 0;
    uint64_t sessions_queued = 0;  // submits that had to wait
    uint64_t sessions_shed = 0;
    uint64_t sessions_finished = 0;
    size_t peak_running = 0;
    // Modeled makespan of the last WaitAll() batch.
    uint64_t last_makespan_micros = 0;
  };
  Telemetry telemetry() const;

  MemoryGovernor& governor() { return governor_; }
  TaskPool& task_pool() { return task_pool_; }
  IoScheduler& io() { return io_; }
  BufferPool& pool() { return pool_; }
  // Per-query flight records; one per submitted session (shed included).
  const QueryLog& query_log() const { return query_log_; }

  // Adds the engine's run-wide sources into a registry: governor ledger,
  // task-pool fairness, disk utilization, query-log distributions.
  void SnapshotMetrics(MetricsRegistry* out) const;

 private:
  void AdmitLocked(QuerySession* session);
  void RunSession(QuerySession* session);
  void OnSessionDone(QuerySession* session);
  uint64_t WallMicros() const;

  const Options options_;
  MemoryGovernor governor_;
  IoScheduler io_;
  BufferPool pool_;
  TaskPool task_pool_;
  QueryLog query_log_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mu_;
  std::condition_variable all_done_cv_;
  std::deque<QuerySession*> queue_;
  std::vector<std::unique_ptr<QuerySession>> sessions_;
  size_t running_ = 0;
  uint64_t batch_floor_ = 0;  // scheduler floor at the batch start
  Telemetry telemetry_;
};

}  // namespace rsj

#endif  // RSJ_ENGINE_QUERY_ENGINE_H_
