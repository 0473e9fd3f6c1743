// bench_rsj — the seeded end-to-end benchmark of the rsj spatial-join
// library: four workloads, each stressing different layers, checked
// against references computed before the measured phase.
//
//   bench_rsj --workload=<name> --seed=<n> --seconds=<s> [--trace=<file>]
//
// Inputs are generated from --seed (seed 1 is the paper-workload seed
// set of datagen/workloads.cc) at scale 0.1 of the paper's cardinalities,
// indexed by insertion-built R*-trees on 4 KiB pages (the paper's
// construction). One JSON record per metric goes to stdout (schema in
// bench_util.h), closed by a summary record with the attempted and failed
// operation counts. The exit code is non-zero when any check failed.
//
// Without --trace the process measures the end-to-end metrics: set-up
// (data generation + index build) three or more times, then the workload
// for --seconds. With --trace the process instead measures the per-layer
// metrics: one traced set-up, an untraced half-length phase, then a
// shortened phase under a TraceRecorder whose spans are folded into
// per-layer self time and written as a Chrome trace to <file>. The two
// modes never share a process, so tracing and its diagnostic calls cannot
// touch the end-to-end numbers.
//
// Layers are timed only from here, with spans around calls into their
// public functions (category = the src/ module name), plus the spans the
// library itself emits when handed the recorder.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "datagen/rng.h"
#include "rsjbench/bench_util.h"

namespace rsj {
namespace rsjbench {
namespace {

using Clock = std::chrono::steady_clock;

// Scale of the paper's cardinalities. The insertion builds dominate
// set-up (all ten A-E trees take several seconds at this scale), and every
// run sets up at least three times, so a larger scale would not fit the
// run budget.
constexpr double kScale = 0.1;
// setup_s is the median of several set-ups: at least kMinSetups, and more
// (up to kMaxSetups) while they total less than kSetupSeconds, so that a
// cheap set-up is sampled over a few seconds of machine noise, not one.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupSeconds = 5.0;
constexpr uint64_t kPaperBufferBytes = 128 * 1024;  // 32 frames of 4 KiB
// Ops of the traced phase: enough for stable medians, few enough that
// the per-thread trace buffers never drop an event.
constexpr size_t kTracedOps = 32;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return 1000.0 * SecondsSince(start);
}

// Pass/fail tally of every checked operation.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // `what` + `detail` describe the failure; nothing is built on success.
  void Expect(bool ok, const char* what, const std::string& detail = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAIL: %s%s\n", what, detail.c_str());
    }
  }
  void Merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

// --- inputs ---------------------------------------------------------------

struct Relation {
  const Dataset* data = nullptr;  // exact geometry for refinement
  std::vector<Rect> rects;
  std::unique_ptr<PagedFile> file;
  std::unique_ptr<RTree> tree;

  JoinRelation join() const { return {tree.get(), &rects}; }
};

// The generated maps of a set of tests and their indexes. Held by
// unique_ptr and never moved: relations point into `maps`.
struct Inputs {
  std::map<TestCase, Workload> maps;
  std::map<TestCase, Relation> r;
  std::map<TestCase, Relation> s;
  double gen_s = 0.0;
  double build_s = 0.0;
  uint64_t pages = 0;
};

Relation IndexDataset(const Dataset& data, TraceRecorder* tracer) {
  TraceSpan span(tracer, "rtree", "insert_build");
  Relation rel;
  rel.data = &data;
  rel.rects = data.Mbrs();
  RTreeOptions options;  // R*, 4 KiB pages
  rel.file = std::make_unique<PagedFile>(options.page_size);
  rel.tree = std::make_unique<RTree>(
      BuildRTree(rel.file.get(), rel.rects, options));
  return rel;
}

std::unique_ptr<Inputs> SetUp(const std::vector<TestCase>& tests,
                              uint64_t seed, TraceRecorder* tracer) {
  auto in = std::make_unique<Inputs>();
  const auto gen_start = Clock::now();
  for (const TestCase t : tests) {
    TraceSpan span(tracer, "datagen", "generate");
    in->maps[t] = MakeSeededWorkload(t, kScale, seed);
  }
  in->gen_s = SecondsSince(gen_start);
  const auto build_start = Clock::now();
  for (const TestCase t : tests) {
    in->r[t] = IndexDataset(in->maps[t].r, tracer);
    in->s[t] = IndexDataset(in->maps[t].s, tracer);
  }
  in->build_s = SecondsSince(build_start);
  for (const TestCase t : tests) {
    in->pages += in->r[t].tree->ComputeStats().TotalPages() +
                 in->s[t].tree->ComputeStats().TotalPages();
  }
  return in;
}

JoinOptions PaperJoin(JoinAlgorithm algorithm) {
  JoinOptions options;
  options.algorithm = algorithm;
  options.buffer_bytes = kPaperBufferBytes;
  return options;
}

std::unique_ptr<IoScheduler> OpenDisks(unsigned disks, TraceRecorder* tracer) {
  TraceSpan span(tracer, "io", "open");
  IoScheduler::Options options;
  options.disks.disk_count = disks;
  options.tracer = tracer;
  return std::make_unique<IoScheduler>(options);
}

void CloseDisks(std::unique_ptr<IoScheduler>* io, TraceRecorder* tracer) {
  TraceSpan span(tracer, "io", "close");
  io->reset();
}

// --- measured phase -------------------------------------------------------

// What one measured phase saw: per-op latencies plus the merged counters
// the per-layer metrics are derived from.
struct Phase {
  std::vector<double> op_ms;
  std::vector<double> ref_ms;  // reference kernel timings, between ops
  Clock::time_point next_ref;
  Checks checks;
  // Ops whose counters are merged below: the timed ops, plus serve_mix's
  // untimed warm-up queries.
  uint64_t counted_ops = 0;
  Statistics stats;
  uint64_t modeled_micros = 0;
  uint64_t candidates = 0;    // refinement candidates (MBR-join output)
  uint64_t raster_cases = 0;  // pairs of one pass planned onto the raster tier
  double qerror_max = 0.0;    // planner result-size estimate vs actual
  std::vector<uint64_t> worker_tasks;  // executor tasks per worker slot
  uint64_t governor_peak_bytes = 0;
  uint64_t sessions_submitted = 0;
  uint64_t sessions_queued = 0;
  uint64_t sessions_shed = 0;

  void Merge(const Phase& other) {
    op_ms.insert(op_ms.end(), other.op_ms.begin(), other.op_ms.end());
    checks.Merge(other.checks);
    counted_ops += other.counted_ops;
    stats.MergeFrom(other.stats);
    modeled_micros += other.modeled_micros;
    candidates += other.candidates;
    raster_cases = std::max(raster_cases, other.raster_cases);
    qerror_max = std::max(qerror_max, other.qerror_max);
    NoteTasks(other.worker_tasks);
  }
  // Times the reference kernel three times, at most every 50 ms. Called
  // only where no thread of the workload runs.
  void SampleReference() {
    if (Clock::now() < next_ref) return;
    for (int i = 0; i < 3; ++i) ref_ms.push_back(ReferenceKernelMs());
    next_ref = Clock::now() + std::chrono::milliseconds(50);
  }
  void NoteTasks(const std::vector<uint64_t>& counts) {
    if (worker_tasks.size() < counts.size()) worker_tasks.resize(counts.size());
    for (size_t w = 0; w < counts.size(); ++w) worker_tasks[w] += counts[w];
  }
  // Max over min of the per-slot task totals (0 without executor runs).
  double TaskSpread() const {
    if (worker_tasks.empty()) return 0.0;
    const auto [lo, hi] =
        std::minmax_element(worker_tasks.begin(), worker_tasks.end());
    return static_cast<double>(*hi) /
           static_cast<double>(std::max<uint64_t>(1, *lo));
  }
  void NoteEstimate(double estimated, uint64_t actual) {
    const double a = std::max(1.0, static_cast<double>(actual));
    const double e = std::max(1.0, estimated);
    qerror_max = std::max(qerror_max, std::max(a / e, e / a));
  }
};

// Per-layer values a workload computes outside the measured phase (the
// paper_ae ladder, the idjoin_refine refinement diagnostics).
using Extras = std::map<std::string, double>;

class Workbench {
 public:
  virtual ~Workbench() = default;
  virtual std::vector<TestCase> Tests() const = 0;
  // Untimed, after set-up: computes the references the measured phase is
  // checked against.
  virtual void Prepare(const Inputs& in, Checks* checks, Extras* extras) = 0;
  // Runs ops until `seconds` of measured time or `max_ops` ops.
  virtual Phase Run(double seconds, size_t max_ops, TraceRecorder* tracer) = 0;
  // Traced process only, after the traced phase: extra diagnostic calls.
  virtual void Diagnose(TraceRecorder*, Checks*, Extras*) {}
};

// --- paper_ae: the paper's experiment -------------------------------------

// Tests A-E; one op is one pass of SJ4 over every pair on a fresh 1-disk
// array with a 128 KiB LRU buffer and no prefetch. The buffer is far
// smaller than the trees, so traversal, sort/sweep, buffer and modeled
// I/O wait carry the load.
class PaperAe final : public Workbench {
 public:
  std::vector<TestCase> Tests() const override {
    return std::vector<TestCase>(std::begin(kAllTestCases),
                                 std::end(kAllTestCases));
  }

  void Prepare(const Inputs& in, Checks* checks, Extras* extras) override {
    in_ = &in;
    constexpr JoinAlgorithm kLadder[] = {
        JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2, JoinAlgorithm::kSJ3,
        JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5};
    for (const TestCase t : Tests()) {
      MultisetChecksum sj1, sj4;
      for (size_t k = 0; k < 5; ++k) {
        const bool collect = k == 0 || k == 3;
        const JoinRunResult run =
            RunSpatialJoin(*in.r.at(t).tree, *in.s.at(t).tree,
                           PaperJoin(kLadder[k]), collect);
        const std::string prefix = "join.sj" + std::to_string(k + 1);
        (*extras)[prefix + ".disk_reads"] += run.stats.disk_reads;
        (*extras)[prefix + ".comparisons"] += run.stats.TotalComparisons();
        if (k == 0) ref_pairs_[t] = run.pair_count;
        run.chunks.ForEachPair([&](const ResultPair& p) {
          (k == 0 ? sj1 : sj4).AddPair(p.r, p.s);
        });
        checks->Expect(run.pair_count == ref_pairs_[t],
                       "paper_ae: count differs from SJ1 for ",
                       std::string(JoinAlgorithmName(kLadder[k])) +
                           " on test " + TestCaseName(t));
      }
      checks->Expect(sj1 == sj4,
                     "paper_ae: SJ1 and SJ4 pair multisets differ on test ",
                     TestCaseName(t));
    }
  }

  Phase Run(double seconds, size_t max_ops, TraceRecorder* tracer) override {
    Phase phase;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds && phase.op_ms.size() < max_ops) {
      phase.SampleReference();
      const auto op_start = Clock::now();
      Statistics pass;
      uint64_t modeled = 0;
      bool counts_ok = true;
      for (const TestCase t : Tests()) {
        std::unique_ptr<IoScheduler> io = OpenDisks(1, tracer);
        uint64_t elapsed = 0;
        JoinRunResult run;
        {
          TraceSpan span(tracer, "join", "sj4");
          run = RunSpatialJoinWithIo(*in_->r.at(t).tree, *in_->s.at(t).tree,
                                     PaperJoin(JoinAlgorithm::kSJ4), io.get(),
                                     /*prefetch=*/false, 32,
                                     /*collect_pairs=*/false, &elapsed);
        }
        CloseDisks(&io, tracer);
        counts_ok &= run.pair_count == ref_pairs_.at(t);
        pass.MergeFrom(run.stats);
        modeled += elapsed;
      }
      phase.op_ms.push_back(MillisSince(op_start));
      ++phase.counted_ops;
      // The paper's counters are deterministic: every pass must repeat the
      // first pass's disk reads, comparisons and modeled time exactly.
      const PassCounters counters{pass.disk_reads, pass.TotalComparisons(),
                                  modeled};
      if (!first_pass_) first_pass_ = counters;
      phase.checks.Expect(counts_ok && counters == *first_pass_,
                          "paper_ae: pass pair counts or counters changed");
      phase.stats.MergeFrom(pass);
      phase.modeled_micros += modeled;
    }
    return phase;
  }

 private:
  struct PassCounters {
    uint64_t disk_reads;
    uint64_t comparisons;
    uint64_t modeled;
    friend bool operator==(const PassCounters&, const PassCounters&) = default;
  };

  const Inputs* in_ = nullptr;
  std::map<TestCase, uint64_t> ref_pairs_;
  std::optional<PassCounters> first_pass_;
};

// --- idjoin_refine: filter + planned refinement tiers ---------------------

// Tests A, D and E; one op plans every pair for exact geometry and runs the
// streaming ID-join on one thread. The planner sends only E, whose region
// candidates are many, through the raster tier; A (polylines) and D
// (almost all candidates are hits) stay exact-only, so a tier or planner
// change that helps E but slows A or D shows up here.
class IdJoinRefine final : public Workbench {
 public:
  std::vector<TestCase> Tests() const override {
    return {TestCase::kA, TestCase::kD, TestCase::kE};
  }

  void Prepare(const Inputs& in, Checks* checks, Extras*) override {
    in_ = &in;
    for (const TestCase t : Tests()) {
      const IdJoinResult exact =
          RunIdSpatialJoin(*in.r.at(t).tree, *in.r.at(t).data,
                           *in.s.at(t).tree, *in.s.at(t).data, JoinOptions{});
      ref_[t] = {exact.candidate_pairs, exact.result_pairs};
      checks->Expect(exact.candidate_pairs > 0 && exact.result_pairs > 0,
                     "idjoin_refine: empty reference on test ",
                     TestCaseName(t));
    }
  }

  Phase Run(double seconds, size_t max_ops, TraceRecorder* tracer) override {
    Phase phase;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds && phase.op_ms.size() < max_ops) {
      phase.SampleReference();
      const auto op_start = Clock::now();
      bool ok = true;
      uint64_t raster_cases = 0;
      for (const TestCase t : Tests()) {
        const Relation& r = in_->r.at(t);
        const Relation& s = in_->s.at(t);
        PlanChoice plan;
        {
          TraceSpan span(tracer, "engine", "plan");
          plan = PlanPairJoin(*r.tree, *s.tree, PlannerOptions{},
                              /*exact_geometry=*/true);
        }
        JoinOptions join;
        ParallelExecutorOptions unused_exec;
        ApplyPlan(plan, &join, &unused_exec);
        std::unique_ptr<IoScheduler> io = OpenDisks(1, tracer);
        StreamingRefineOptions options;
        options.num_threads = 1;
        options.io = io.get();
        options.tracer = tracer;
        StreamingIdJoinResult run;
        {
          TraceSpan span(tracer, "join", "id_join_streaming");
          run = RunIdSpatialJoinStreaming(*r.tree, *r.data, *s.tree, *s.data,
                                          join, options);
        }
        phase.modeled_micros += io->SynchronizeClocks();
        CloseDisks(&io, tracer);
        ok &= run.candidate_pairs == ref_.at(t).candidates &&
              run.result_pairs == ref_.at(t).results;
        raster_cases += plan.refine_raster ? 1 : 0;
        phase.NoteEstimate(plan.estimate.result_pairs, run.candidate_pairs);
        phase.candidates += run.candidate_pairs;
        phase.stats.MergeFrom(run.stats);
      }
      phase.op_ms.push_back(MillisSince(op_start));
      ++phase.counted_ops;
      phase.raster_cases = raster_cases;
      phase.checks.Expect(ok, "idjoin_refine: result differs from exact-only "
                              "RunIdSpatialJoin");
    }
    return phase;
  }

  // Splits refinement on every pair into its parts, on the same
  // candidates: eager signature build, two-tier refinement with prebuilt
  // signatures, and exact-only refinement.
  void Diagnose(TraceRecorder* tracer, Checks* checks,
                Extras* extras) override {
    double build_ms = 0.0, two_tier_ms = 0.0, exact_ms = 0.0;
    uint64_t signature_bytes = 0;
    for (const TestCase t : Tests()) {
      const Relation& r = in_->r.at(t);
      const Relation& s = in_->s.at(t);
      JoinRunResult filtered =
          RunSpatialJoin(*r.tree, *s.tree, JoinOptions{}, true);
      SpilledResult candidates;
      candidates.pair_count = filtered.pair_count;
      candidates.resident = std::move(filtered.chunks);
      Statistics stats;
      RasterRefineFilter raster(*r.data, *s.data,
                                JoinOptions{}.raster_grid_bits);
      auto timed = [&](const char* name, auto&& fn) {
        TraceSpan span(tracer, "refine", name);
        const auto t0 = Clock::now();
        fn();
        return MillisSince(t0);
      };
      build_ms += timed("signature_build", [&] { raster.BuildAll(&stats); });
      CountingSink two_tier, exact;
      two_tier_ms += timed("two_tier", [&] {
        RefineCandidateChunks(candidates, *r.data, *s.data, &two_tier, &stats,
                              &raster);
      });
      exact_ms += timed("exact_only", [&] {
        RefineCandidateChunks(candidates, *r.data, *s.data, &exact, &stats);
      });
      signature_bytes += raster.signature_bytes();
      checks->Expect(two_tier.count() == ref_.at(t).results &&
                         exact.count() == ref_.at(t).results,
                     "idjoin_refine: diagnostic refinement differs on test ",
                     TestCaseName(t));
    }
    (*extras)["refine.signature_build_frac"] =
        build_ms / std::max(1e-9, build_ms + two_tier_ms);
    (*extras)["refine.two_tier_speedup"] =
        exact_ms / std::max(1e-9, two_tier_ms);
    (*extras)["refine.all_signatures_mb"] =
        static_cast<double>(signature_bytes) / (1024.0 * 1024.0);
  }

 private:
  struct Reference {
    uint64_t candidates = 0;
    uint64_t results = 0;
  };

  const Inputs* in_ = nullptr;
  std::map<TestCase, Reference> ref_;
};

// --- serve_mix: concurrent sessions through one QueryEngine ---------------

// A closed loop of three clients on one shared QueryEngine. One op is a
// client's round: the six menu queries in a seeded order, each submitted
// once the previous one returned. The engine's 16 MiB pool holds every
// tree, so admission, the planner, the shared pool and node cache, the
// session task pool and the parallel executor carry the load, and the
// paper's buffer-bound path is bypassed.
//
// The engine keeps every session (outcome and driver thread) until it is
// destroyed, so the loop runs in epochs of kEpochRounds rounds on a fresh
// engine, each begun by one untimed warm-up round that fills the pool.
// Memory then stays independent of throughput.
class ServeMix final : public Workbench {
 public:
  explicit ServeMix(uint64_t seed) : seed_(seed) {}

  std::vector<TestCase> Tests() const override {
    return {TestCase::kA, TestCase::kB, TestCase::kE};
  }

  void Prepare(const Inputs& in, Checks* checks, Extras*) override {
    const Relation& ar = in.r.at(TestCase::kA);
    const Relation& as = in.s.at(TestCase::kA);
    const Relation& br = in.r.at(TestCase::kB);
    const Relation& bs = in.s.at(TestCase::kB);
    const Relation& er = in.r.at(TestCase::kE);
    const Relation& es = in.s.at(TestCase::kE);
    // A tiny relation keeps one menu item below the planner's nested-loop
    // ceiling.
    tiny_rects_.assign(ar.rects.begin(),
                       ar.rects.begin() +
                           static_cast<std::ptrdiff_t>(
                               std::min<size_t>(250, ar.rects.size())));
    tiny_file_ = std::make_unique<PagedFile>(kPageSize4K);
    tiny_tree_ = std::make_unique<RTree>(
        BuildRTree(tiny_file_.get(), tiny_rects_, RTreeOptions{}));
    const JoinRelation tiny{tiny_tree_.get(), &tiny_rects_};

    JoinOptions within;
    within.predicate = JoinPredicate::kWithinDistance;
    within.epsilon = 0.002;
    menu_ = {
        {"A", {ar.join(), as.join()}, JoinOptions{}, 0},
        {"B", {br.join(), bs.join()}, JoinOptions{}, 0},
        {"E", {er.join(), es.join()}, JoinOptions{}, 0},
        {"A~eps", {ar.join(), as.join()}, within, 0},
        {"A.r-A.s-B.s", {ar.join(), as.join(), bs.join()}, JoinOptions{}, 0},
        {"tiny", {tiny, tiny}, JoinOptions{}, 0},
    };
    for (MenuItem& item : menu_) {
      item.expected =
          item.relations.size() == 2
              ? RunSpatialJoin(*item.relations[0].tree,
                               *item.relations[1].tree, item.join)
                    .pair_count
              : RunChainSpatialJoin(item.relations, item.join).tuple_count;
      checks->Expect(item.expected > 0,
                     "serve_mix: empty reference for ", item.name);
    }
  }

  Phase Run(double seconds, size_t max_ops, TraceRecorder* tracer) override {
    Phase phase;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds && phase.op_ms.size() < max_ops) {
      phase.SampleReference();
      const size_t quota = std::min(kEpochRounds, max_ops - phase.op_ms.size());
      RunEpoch(start, seconds, quota, tracer, &phase);
      ++epoch_;
    }
    return phase;
  }

 private:
  static constexpr size_t kEpochRounds = 32;
  static constexpr unsigned kClients = 3;

  struct MenuItem {
    std::string name;
    std::vector<JoinRelation> relations;
    JoinOptions join;
    uint64_t expected = 0;
  };

  QuerySpec Spec(const MenuItem& item) const {
    QuerySpec spec;
    spec.relations = item.relations;
    spec.label = item.name;
    spec.join = item.join;
    spec.collect = false;
    return spec;
  }

  // Runs one query and checks it; a shed session is a failure.
  void RunQuery(QueryEngine* engine, const MenuItem& item,
                TraceRecorder* tracer, Phase* out) const {
    QuerySession* session = nullptr;
    {
      TraceSpan span(tracer, "engine", "submit");
      session = engine->Submit(Spec(item));
    }
    session->Wait();
    if (session->state() == SessionState::kShed) {
      out->checks.Expect(false, "serve_mix: session shed: ", item.name);
      return;
    }
    const QueryOutcome& outcome = session->outcome();
    out->checks.Expect(outcome.result_count == item.expected,
                       "serve_mix: result count differs for ", item.name);
    out->stats.MergeFrom(outcome.is_chain ? outcome.chain.total_stats
                                          : outcome.pair.total_stats);
    out->modeled_micros += outcome.modeled_elapsed_micros;
    if (!outcome.is_chain) {
      out->NoteTasks(outcome.pair.worker_task_counts);
      if (item.join.predicate == JoinPredicate::kIntersects) {
        out->NoteEstimate(outcome.plan.estimate.result_pairs,
                          outcome.result_count);
      }
    }
  }

  void RunEpoch(Clock::time_point start, double seconds, size_t quota,
                TraceRecorder* tracer, Phase* phase) {
    QueryEngine::Options options;
    options.pool.capacity_bytes = 16ull << 20;
    options.pool.page_size = kPageSize4K;
    options.io.disks.disk_count = 4;
    options.pool_threads = 4;
    options.session_threads = 2;
    options.max_concurrent_sessions = kClients;
    options.tracer = tracer;
    QueryEngine engine(options);

    // The warm-up's counters stay in the phase (its cold reads are the
    // epoch's only disk I/O); only its latency is left out.
    for (const MenuItem& item : menu_) RunQuery(&engine, item, nullptr, phase);
    ++phase->counted_ops;
    engine.WaitAll();

    std::atomic<int64_t> tickets{static_cast<int64_t>(quota)};
    std::vector<Phase> local(kClients);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(seed_ * 1000003 + epoch_ * kClients + c);
        std::vector<size_t> order(menu_.size());
        while (tickets.fetch_sub(1) > 0 && SecondsSince(start) < seconds) {
          std::iota(order.begin(), order.end(), 0);
          for (size_t i = 0; i + 1 < order.size(); ++i) {  // Fisher-Yates
            std::swap(order[i], order[i + rng.UniformInt(order.size() - i)]);
          }
          const auto t0 = Clock::now();
          for (const size_t i : order) {
            RunQuery(&engine, menu_[i], tracer, &local[c]);
          }
          local[c].op_ms.push_back(MillisSince(t0));
          ++local[c].counted_ops;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (const Phase& p : local) phase->Merge(p);

    engine.WaitAll();
    const QueryEngine::Telemetry tel = engine.telemetry();
    phase->sessions_submitted += tel.sessions_submitted;
    phase->sessions_queued += tel.sessions_queued;
    phase->sessions_shed += tel.sessions_shed;
    phase->governor_peak_bytes =
        std::max(phase->governor_peak_bytes, engine.governor().peak_bytes());
  }

  const uint64_t seed_;
  uint64_t epoch_ = 0;
  std::vector<Rect> tiny_rects_;
  std::unique_ptr<PagedFile> tiny_file_;
  std::unique_ptr<RTree> tiny_tree_;
  std::vector<MenuItem> menu_;
};

// --- bounded_collect: spill, multiway pipeline, declustering --------------

// Test D; one op runs three collected jobs: a 2-thread self-join that
// spills past 8 resident chunks on 4 disks and is read back, the pipelined
// chain D.r-D.s-D.r with tuple spill, and a 4-shard declustered join
// (declustering, two STR-loaded sharded datasets, deduplicated join). The
// storage and io layers write (spill runs, shard loads) beside the join's
// reads; refinement and the engine are bypassed.
class BoundedCollect final : public Workbench {
 public:
  std::vector<TestCase> Tests() const override { return {TestCase::kD}; }

  void Prepare(const Inputs& in, Checks* checks, Extras*) override {
    r_ = &in.r.at(TestCase::kD);
    s_ = &in.s.at(TestCase::kD);
    const JoinRunResult pairs =
        RunSpatialJoin(*r_->tree, *s_->tree, PaperJoin(JoinAlgorithm::kSJ4),
                       /*collect_pairs=*/true);
    pairs.chunks.ForEachPair(
        [&](const ResultPair& p) { ref_pairs_.AddPair(p.r, p.s); });
    const MultiwayJoinResult chain = RunChainSpatialJoin(
        Chain(), PaperJoin(JoinAlgorithm::kSJ4), /*collect_tuples=*/true);
    for (const std::vector<uint32_t>& tuple : chain.tuples) {
      ref_tuples_.Add(tuple);
    }
    checks->Expect(ref_pairs_.count() > 0 && ref_tuples_.count() > 0,
                   "bounded_collect: empty reference");
  }

  Phase Run(double seconds, size_t max_ops, TraceRecorder* tracer) override {
    Phase phase;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds && phase.op_ms.size() < max_ops) {
      phase.SampleReference();
      const auto op_start = Clock::now();
      const bool ok = Pass(tracer, &phase);
      phase.op_ms.push_back(MillisSince(op_start));
      ++phase.counted_ops;
      phase.checks.Expect(ok, "bounded_collect: a collected result differs "
                              "from the sequential reference");
    }
    return phase;
  }

 private:
  std::vector<JoinRelation> Chain() const {
    return {r_->join(), s_->join(), r_->join()};
  }

  ParallelExecutorOptions SpillingExec(IoScheduler* io,
                                       TraceRecorder* tracer) const {
    ParallelExecutorOptions exec;
    exec.num_threads = 2;
    exec.collect_pairs = true;
    exec.spill_results = true;
    exec.spill_budget_chunks = 8;
    exec.io_scheduler = io;
    exec.tracer = tracer;
    return exec;
  }

  bool Pass(TraceRecorder* tracer, Phase* phase) const {
    const bool spilled_ok = SpillingJobs(tracer, phase);
    const bool sharded_ok = ShardedJob(tracer, phase);
    return spilled_ok && sharded_ok;
  }

  // The spilling self-join and chain, each read back from its spill file.
  bool SpillingJobs(TraceRecorder* tracer, Phase* phase) const {
    const JoinOptions join = PaperJoin(JoinAlgorithm::kSJ4);
    // Declared first, so destroyed last: the spilled results re-read
    // through it.
    std::unique_ptr<IoScheduler> io = OpenDisks(4, tracer);
    Statistics reread;

    ParallelJoinResult self_join;
    {
      TraceSpan span(tracer, "exec", "self_join");
      self_join = RunParallelSpatialJoin(*r_->tree, *s_->tree, join,
                                         SpillingExec(io.get(), tracer));
    }
    MultisetChecksum pairs;
    {
      TraceSpan span(tracer, "spill", "reread_pairs");
      SpilledResultReader reader(&self_join.spilled, &reread);
      std::span<const ResultPair> chunk;
      while (reader.Next(&chunk)) pairs.AddPairs(chunk);
    }

    ParallelChainJoinResult chain;
    {
      TraceSpan span(tracer, "exec", "chain");
      chain = RunParallelChainSpatialJoin(
          Chain(), join, SpillingExec(io.get(), tracer),
          /*collect_tuples=*/true);
    }
    MultisetChecksum tuples;
    {
      TraceSpan span(tracer, "spill", "reread_tuples");
      const size_t arity = chain.spilled_tuples.arity;
      for (const std::vector<uint32_t>& tuple : chain.tuples) tuples.Add(tuple);
      chain.spilled_tuples.ForEachTuple(
          [&](const uint32_t* tuple) {
            tuples.Add(std::span<const uint32_t>(tuple, arity));
          },
          &reread);
    }

    phase->stats.MergeFrom(self_join.total_stats);
    phase->stats.MergeFrom(chain.total_stats);
    phase->stats.MergeFrom(reread);
    phase->modeled_micros +=
        self_join.modeled_elapsed_micros + chain.modeled_elapsed_micros;
    phase->NoteTasks(self_join.worker_task_counts);
    return pairs == ref_pairs_ && tuples == ref_tuples_;
  }

  // Declustering, the two sharded datasets' STR loads, and the
  // deduplicated shard-pair join.
  bool ShardedJob(TraceRecorder* tracer, Phase* phase) const {
    Statistics build_stats;
    std::unique_ptr<Declustering> decl;
    {
      TraceSpan span(tracer, "shard", "decluster");
      decl = std::make_unique<Declustering>(
          Declustering::Build(r_->rects, s_->rects, DeclusterOptions{4, 16}));
    }
    std::unique_ptr<ShardedDataset> r_shards, s_shards;
    {
      TraceSpan span(tracer, "shard", "build");
      ShardBuildOptions build;  // STR loads of 4 KiB R*-tree pages
      r_shards = std::make_unique<ShardedDataset>(decl.get(), r_->rects, build,
                                                  &build_stats);
      s_shards = std::make_unique<ShardedDataset>(decl.get(), s_->rects, build,
                                                  &build_stats);
    }
    ShardedJoinOptions options;
    options.join = PaperJoin(JoinAlgorithm::kSJ4);
    options.exec.num_threads = 2;
    options.exec.collect_pairs = true;
    options.exec.tracer = tracer;
    options.disks_per_shard = 1;
    ShardedJoinResult run;
    {
      TraceSpan span(tracer, "shard", "join");
      run = RunShardedSpatialJoin(*r_shards, *s_shards, options);
    }
    MultisetChecksum pairs;
    run.chunks.ForEachPair(
        [&](const ResultPair& p) { pairs.AddPair(p.r, p.s); });

    phase->stats.MergeFrom(build_stats);
    phase->stats.MergeFrom(run.stats);
    phase->modeled_micros += run.modeled_elapsed_micros;
    return pairs == ref_pairs_;
  }

  const Relation* r_ = nullptr;
  const Relation* s_ = nullptr;
  MultisetChecksum ref_pairs_;
  MultisetChecksum ref_tuples_;
};

// --- metrics --------------------------------------------------------------

std::unique_ptr<Workbench> MakeWorkbench(const std::string& name,
                                         uint64_t seed) {
  if (name == "paper_ae") return std::make_unique<PaperAe>();
  if (name == "idjoin_refine") return std::make_unique<IdJoinRefine>();
  if (name == "serve_mix") return std::make_unique<ServeMix>(seed);
  if (name == "bounded_collect") return std::make_unique<BoundedCollect>();
  return nullptr;
}

double PerOp(double total, const Phase& phase) {
  return phase.counted_ops == 0
             ? 0.0
             : total / static_cast<double>(phase.counted_ops);
}

// Op latency is taken as the median of the fastest half of the ops (p25).
// On a shared host the machine alternates between a fast and a ~1.6x
// slower state for seconds to minutes: a run's plain median lands in
// either state, p25 stays in the fast one while the run has one.
double OpMs(const std::vector<double>& op_ms) { return Percentile(op_ms, 25); }

// The end-to-end latency divides out the host's speed: op p25 over the
// reference kernel's p25 in the same run. A slower library raises it; a
// slower host raises both terms.
double OpRel(const Phase& phase) {
  const double ref = Percentile(phase.ref_ms, 25);
  return ref <= 0.0 ? 0.0 : OpMs(phase.op_ms) / ref;
}

void EmitEndToEnd(const RecordEmitter& out, const std::vector<double>& setups,
                  const Phase& phase) {
  out.Emit("e2e", "setup_s", Median(setups), "s", setups.size());
  out.Emit("e2e", "op_rel_p25", OpRel(phase), "ratio", phase.op_ms.size());
  out.Emit("e2e", "peak_rss_mb", PeakRssMib(), "MiB", 1);
  out.Emit("e2e", "comparisons_per_op",
           PerOp(static_cast<double>(phase.stats.TotalComparisons()), phase),
           "count", phase.counted_ops);
}

// Every per-layer metric, in one fixed list: each workload prints all of
// them, with 0 for the counters of layers it bypasses.
void EmitLayers(const RecordEmitter& out, const Inputs& in,
                const Phase& untraced, const Phase& traced,
                const std::map<std::string, double>& self,
                const Extras& extras, const TraceRecorder& tracer,
                uint64_t trace_events) {
  // Counts and ratios come from the untraced half, times from the traced.
  const Phase& counted = untraced;
  const Statistics& st = counted.stats;
  const uint64_t n = counted.counted_ops;
  auto per_op = [&](uint64_t total) {
    return PerOp(static_cast<double>(total), counted);
  };
  auto extra = [&](const std::string& name) {
    const auto it = extras.find(name);
    return it == extras.end() ? 0.0 : it->second;
  };
  double self_total = 0.0;
  for (const auto& [layer, micros] : self) self_total += micros;
  auto self_frac = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() || self_total <= 0.0 ? 0.0
                                                 : it->second / self_total;
  };
  const uint64_t tn = traced.op_ms.size();

  out.Emit("layer", "datagen.gen_ms", 1000.0 * in.gen_s, "ms", 1);
  out.Emit("layer", "rtree.build_ms", 1000.0 * in.build_s, "ms", 1);
  out.Emit("layer", "rtree.pages", static_cast<double>(in.pages), "pages", 1);

  out.Emit("layer", "join.self_frac", self_frac("join"), "ratio", tn);
  out.Emit("layer", "join.node_pairs_per_op", per_op(st.node_pairs), "count",
           n);
  out.Emit("layer", "join.window_queries_per_op", per_op(st.window_queries),
           "count", n);
  for (int k = 1; k <= 5; ++k) {
    const std::string prefix = "join.sj" + std::to_string(k);
    out.Emit("layer", prefix + ".disk_reads", extra(prefix + ".disk_reads"),
             "pages", 1);
    out.Emit("layer", prefix + ".comparisons", extra(prefix + ".comparisons"),
             "count", 1);
  }

  out.Emit("layer", "geom.join_comparisons_per_op",
           per_op(st.join_comparisons.count()), "count", n);
  out.Emit("layer", "geom.sort_comparisons_per_op",
           per_op(st.sort_comparisons.count()), "count", n);

  const uint64_t node_fetches = st.node_decodes + st.node_cache_hits;
  out.Emit("layer", "storage.disk_reads_per_op", per_op(st.disk_reads),
           "pages", n);
  out.Emit("layer", "storage.buffer_hit_rate", st.HitRate(), "ratio",
           st.disk_reads + st.buffer_hits);
  out.Emit("layer", "storage.node_cache_hit_rate",
           node_fetches == 0 ? 0.0
                             : static_cast<double>(st.node_cache_hits) /
                                   static_cast<double>(node_fetches),
           "ratio", node_fetches);

  out.Emit("layer", "io.self_frac", self_frac("io"), "ratio", tn);
  out.Emit("layer", "io.modeled_ms_per_op",
           PerOp(static_cast<double>(counted.modeled_micros) / 1000.0, counted),
           "modeled_ms", n);
  out.Emit("layer", "io.disk_writes_per_op", per_op(st.disk_writes), "pages",
           n);

  const uint64_t avoided = st.ri_exact_tests_avoided;
  out.Emit("layer", "refine.self_frac", self_frac("refine"), "ratio", tn);
  out.Emit("layer", "refine.candidates_per_op", per_op(counted.candidates),
           "count", n);
  out.Emit("layer", "refine.exact_tests_per_op",
           per_op(counted.candidates - std::min(counted.candidates, avoided)),
           "count", n);
  out.Emit("layer", "refine.avoided_frac",
           counted.candidates == 0
               ? 0.0
               : static_cast<double>(avoided) /
                     static_cast<double>(counted.candidates),
           "ratio", counted.candidates);
  out.Emit("layer", "refine.raster_cases",
           static_cast<double>(counted.raster_cases), "count", 1);
  out.Emit("layer", "refine.signature_mb_per_op",
           per_op(st.ri_signature_bytes) / (1024.0 * 1024.0), "MiB", n);
  out.Emit("layer", "refine.all_signatures_mb",
           extra("refine.all_signatures_mb"), "MiB", 1);
  out.Emit("layer", "refine.signature_build_frac",
           extra("refine.signature_build_frac"), "ratio", 1);
  out.Emit("layer", "refine.two_tier_speedup",
           extra("refine.two_tier_speedup"), "ratio", 1);

  out.Emit("layer", "engine.self_frac", self_frac("engine"), "ratio", tn);
  out.Emit("layer", "engine.plan_qerror_max", counted.qerror_max, "ratio", n);
  out.Emit("layer", "engine.sessions_shed",
           static_cast<double>(counted.sessions_shed), "count",
           counted.sessions_submitted);
  out.Emit("layer", "engine.queued_frac",
           counted.sessions_submitted == 0
               ? 0.0
               : static_cast<double>(counted.sessions_queued) /
                     static_cast<double>(counted.sessions_submitted),
           "ratio", counted.sessions_submitted);
  out.Emit("layer", "engine.governor_peak_mb",
           static_cast<double>(counted.governor_peak_bytes) /
               (1024.0 * 1024.0),
           "MiB", 1);

  out.Emit("layer", "exec.self_frac", self_frac("exec"), "ratio", tn);
  out.Emit("layer", "exec.task_spread", counted.TaskSpread(), "ratio", n);
  out.Emit("layer", "exec.frontier_peak_tuples",
           static_cast<double>(st.frontier_peak_tuples), "count", n);

  out.Emit("layer", "spill.self_frac", self_frac("spill"), "ratio", tn);
  out.Emit("layer", "spill.chunks_spilled_per_op",
           per_op(st.result_chunks_spilled), "count", n);
  out.Emit("layer", "spill.mb_per_op",
           per_op(st.result_spill_bytes) / (1024.0 * 1024.0), "MiB", n);
  out.Emit("layer", "spill.peak_chunks_resident",
           static_cast<double>(st.result_peak_chunks_resident), "count", n);

  out.Emit("layer", "shard.self_frac", self_frac("shard"), "ratio", tn);
  out.Emit("layer", "shard.objects_replicated_per_op",
           per_op(st.sh_objects_replicated), "count", n);
  out.Emit("layer", "shard.dedup_frac",
           st.sh_raw_pairs == 0
               ? 0.0
               : static_cast<double>(st.sh_dedup_suppressed) /
                     static_cast<double>(st.sh_raw_pairs),
           "ratio", st.sh_raw_pairs);

  const double untraced_ms = OpMs(untraced.op_ms);
  const double traced_ms = OpMs(traced.op_ms);
  out.Emit("layer", "obs.op_ms_p25", untraced_ms, "ms", untraced.op_ms.size());
  out.Emit("layer", "obs.ref_ms_p25", Percentile(untraced.ref_ms, 25), "ms",
           untraced.ref_ms.size());
  out.Emit("layer", "obs.traced_op_ms_p25", traced_ms, "ms", tn);
  out.Emit("layer", "obs.span_ms_per_op",
           tn == 0 ? 0.0 : self_total / 1000.0 / static_cast<double>(tn), "ms",
           tn);
  out.Emit("layer", "obs.trace_overhead_frac",
           untraced_ms <= 0.0 ? 0.0 : traced_ms / untraced_ms - 1.0,
           "ratio", tn);
  out.Emit("layer", "obs.trace_events", static_cast<double>(trace_events),
           "count", 1);
  out.Emit("layer", "obs.trace_dropped", static_cast<double>(tracer.dropped()),
           "count", 1);
}

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "bench_rsj: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Workbench> bench = MakeWorkbench(flags.workload, flags.seed);
  if (bench == nullptr) {
    std::fprintf(stderr, "bench_rsj: unknown workload '%s'\n",
                 flags.workload.c_str());
    return 2;
  }
  const RecordEmitter out(flags.workload, flags.seed);
  Checks checks;

  // The seeded generator must reproduce the paper workloads at seed 1.
  for (const TestCase t : bench->Tests()) {
    checks.Expect(SameWorkload(MakeSeededWorkload(t, kScale, 1),
                               MakeWorkload(t, kScale)),
                  "seed 1 does not reproduce MakeWorkload for test ",
                  TestCaseName(t));
  }

  Extras extras;
  if (flags.trace_path.empty()) {
    std::vector<double> setups;
    double setup_total = 0.0;
    std::unique_ptr<Inputs> in;
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && setup_total < kSetupSeconds)) {
      in.reset();  // never hold two input sets at once
      in = SetUp(bench->Tests(), flags.seed, nullptr);
      setups.push_back(in->gen_s + in->build_s);
      setup_total += setups.back();
    }
    bench->Prepare(*in, &checks, &extras);
    const Phase phase = bench->Run(flags.seconds, SIZE_MAX, nullptr);
    checks.Merge(phase.checks);
    EmitEndToEnd(out, setups, phase);
  } else {
    TraceOptions trace_options;
    trace_options.sample_period = 1;
    trace_options.ring_capacity = 1 << 20;
    TraceRecorder tracer(trace_options);
    tracer.SetProcessName(0, "bench_rsj " + flags.workload);
    const std::unique_ptr<Inputs> in =
        SetUp(bench->Tests(), flags.seed, &tracer);
    bench->Prepare(*in, &checks, &extras);
    const Phase untraced = bench->Run(flags.seconds / 2, SIZE_MAX, nullptr);
    checks.Merge(untraced.checks);
    const uint64_t from = tracer.NowWallMicros();
    const Phase traced = bench->Run(flags.seconds / 2, kTracedOps, &tracer);
    const uint64_t to = tracer.NowWallMicros();
    checks.Merge(traced.checks);
    bench->Diagnose(&tracer, &checks, &extras);
    const std::vector<TraceEvent> events = tracer.Snapshot();
    checks.Expect(WriteChromeTrace(tracer, flags.trace_path),
                  "cannot write trace to ", flags.trace_path);
    EmitLayers(out, *in, untraced, traced,
               SelfMicrosByLayer(events, from, to), extras, tracer,
               events.size());
  }
  out.Summary(checks.attempted, checks.failed, checks.failed == 0);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rsjbench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::rsjbench::Main(argc, argv); }
