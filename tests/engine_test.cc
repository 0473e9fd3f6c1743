// Tests for the serving engine layer (src/engine/): the run-wide memory
// governor's lease ledger, the cost-based planner's threshold decisions,
// and the QueryEngine itself — N concurrent sessions returning exactly
// the serial results for every SJ variant, per-session statistics
// isolation, deterministic admission queueing/shedding, and governor
// accounting across a batch. Runs under TSan in CI: the engine's shared
// pool (with its resident decodes) / scheduler / task pool cross every
// session boundary.

#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/rng.h"
#include "datagen/workloads.h"
#include "engine/memory_governor.h"
#include "engine/planner.h"
#include "join/join_runner.h"
#include "join/multiway_join.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// ---------------------------------------------------------------------------
// MemoryGovernor

TEST(MemoryGovernor, LeaseLedger) {
  MemoryGovernor gov(MemoryGovernor::Options{1000});
  EXPECT_EQ(gov.budget_bytes(), 1000u);
  EXPECT_TRUE(gov.TryLease(MemoryCategory::kResultChunks, 600));
  EXPECT_TRUE(gov.TryLease(MemoryCategory::kRasterSignatures, 400));
  // Past the budget: refused, ledger untouched.
  EXPECT_FALSE(gov.TryLease(MemoryCategory::kFrontierTuples, 1));
  EXPECT_EQ(gov.leased_bytes(), 1000u);
  gov.Release(MemoryCategory::kResultChunks, 600);
  EXPECT_EQ(gov.leased_bytes(), 400u);
  EXPECT_TRUE(gov.TryLease(MemoryCategory::kFrontierTuples, 500));
  // Charge is unconditional: overshoot allowed, visible in the peak.
  gov.Charge(MemoryCategory::kSessionReservations, 500);
  EXPECT_EQ(gov.leased_bytes(), 1400u);
  EXPECT_GE(gov.peak_bytes(), 1400u);
  EXPECT_EQ(gov.category_live(MemoryCategory::kRasterSignatures), 400u);
  EXPECT_EQ(gov.category_peak(MemoryCategory::kResultChunks), 600u);
  gov.Release(MemoryCategory::kRasterSignatures, 400);
  gov.Release(MemoryCategory::kFrontierTuples, 500);
  gov.Release(MemoryCategory::kSessionReservations, 500);
  EXPECT_EQ(gov.leased_bytes(), 0u);
}

TEST(MemoryGovernor, CountsChargesPastTheBudget) {
  MemoryGovernor gov(MemoryGovernor::Options{100});
  EXPECT_TRUE(gov.TryLease(MemoryCategory::kResultChunks, 80));
  EXPECT_EQ(gov.overshoots(), 0u);
  gov.Charge(MemoryCategory::kFrontierTuples, 50);
  EXPECT_EQ(gov.overshoots(), 1u);
  EXPECT_EQ(gov.overshoot_peak_bytes(), 30u);
  // A refused lease charges nothing, so it counts nothing.
  EXPECT_FALSE(gov.TryLease(MemoryCategory::kResultChunks, 10));
  EXPECT_EQ(gov.overshoots(), 1u);
  EXPECT_EQ(gov.overshoot_peak_bytes(), 30u);
  gov.Release(MemoryCategory::kResultChunks, 80);
  gov.Release(MemoryCategory::kFrontierTuples, 50);
  EXPECT_EQ(gov.leased_bytes(), 0u);

  MemoryGovernor unlimited;
  unlimited.Charge(MemoryCategory::kFrontierTuples, 1ull << 40);
  EXPECT_EQ(unlimited.overshoots(), 0u);
  EXPECT_EQ(unlimited.overshoot_peak_bytes(), 0u);
  unlimited.Release(MemoryCategory::kFrontierTuples, 1ull << 40);
}

TEST(MemoryGovernor, UnlimitedBudgetAlwaysLeases) {
  MemoryGovernor gov(MemoryGovernor::Options{0});
  EXPECT_TRUE(gov.TryLease(MemoryCategory::kResultChunks, 1ull << 40));
  gov.Release(MemoryCategory::kResultChunks, 1ull << 40);
}

TEST(MemoryGovernor, ResidentBudgetMirrorsLeases) {
  MemoryGovernor gov(MemoryGovernor::Options{1024});
  {
    ResidentBudget budget(/*budget_chunks=*/4, &gov,
                          MemoryCategory::kResultChunks, /*unit_bytes=*/256);
    EXPECT_TRUE(budget.TryAdmit());
    EXPECT_TRUE(budget.TryAdmit());
    EXPECT_EQ(gov.category_live(MemoryCategory::kResultChunks), 512u);
    budget.Release();
    EXPECT_EQ(gov.category_live(MemoryCategory::kResultChunks), 256u);
    // The governor runs out before the local cap: 1024 / 256 = 4 units.
    EXPECT_TRUE(budget.TryAdmit());
    EXPECT_TRUE(budget.TryAdmit());
    EXPECT_TRUE(budget.TryAdmit());
    EXPECT_FALSE(budget.TryAdmit());
    EXPECT_EQ(budget.live(), 4u);
  }
  // Destruction released every live lease.
  EXPECT_EQ(gov.category_live(MemoryCategory::kResultChunks), 0u);
  EXPECT_EQ(gov.category_peak(MemoryCategory::kResultChunks), 1024u);
}

// ---------------------------------------------------------------------------
// Planner

class PlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    small_rects_ = new std::vector<Rect>(testutil::RandomRects(80, 31));
    big_rects_ =
        new std::vector<Rect>(testutil::ClusteredRects(2500, 32, 6, 0.02));
    small_ = new IndexedRelation(*small_rects_, topt);
    big_ = new IndexedRelation(*big_rects_, topt);
  }
  static void TearDownTestSuite() {
    delete small_;
    delete big_;
    delete small_rects_;
    delete big_rects_;
    small_ = big_ = nullptr;
    small_rects_ = big_rects_ = nullptr;
  }

  static std::vector<Rect>* small_rects_;
  static std::vector<Rect>* big_rects_;
  static IndexedRelation* small_;
  static IndexedRelation* big_;
};

std::vector<Rect>* PlannerTest::small_rects_ = nullptr;
std::vector<Rect>* PlannerTest::big_rects_ = nullptr;
IndexedRelation* PlannerTest::small_ = nullptr;
IndexedRelation* PlannerTest::big_ = nullptr;

TEST_F(PlannerTest, VariantThresholdsCutBothWays) {
  const JoinCostEstimate est =
      EstimateJoinCost(big_->tree(), big_->tree());
  ASSERT_GT(est.sj1_comparisons, 0.0);

  PlannerOptions popt;
  popt.sj1_comparison_ceiling = est.sj1_comparisons * 2;  // tiny enough
  PlanChoice plan = PlanPairJoin(big_->tree(), big_->tree(), popt);
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kSJ1);

  popt.sj1_comparison_ceiling = est.sj1_comparisons / 2;  // too many
  popt.zorder_page_read_floor = est.page_reads * 2;       // reads modest
  plan = PlanPairJoin(big_->tree(), big_->tree(), popt);
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kSJ4);

  popt.zorder_page_read_floor = est.page_reads / 2;  // read-heavy
  plan = PlanPairJoin(big_->tree(), big_->tree(), popt);
  EXPECT_EQ(plan.algorithm, JoinAlgorithm::kSJ5);

  // Spill and prefetch decisions, both sides of the boundary.
  popt.spill_pair_floor = est.result_pairs / 2;
  popt.prefetch_page_read_floor = est.page_reads / 2;
  plan = PlanPairJoin(big_->tree(), big_->tree(), popt);
  EXPECT_TRUE(plan.spill);
  EXPECT_TRUE(plan.prefetch);
  popt.spill_pair_floor = est.result_pairs * 2;
  popt.prefetch_page_read_floor = est.page_reads * 2;
  plan = PlanPairJoin(big_->tree(), big_->tree(), popt);
  EXPECT_FALSE(plan.spill);
  EXPECT_FALSE(plan.prefetch);

  // The audit record carries the decision and the estimator inputs.
  EXPECT_NE(plan.Describe().find("algo=SJ"), std::string::npos);
  EXPECT_NE(plan.Describe().find("est{"), std::string::npos);
}

TEST_F(PlannerTest, ConcurrentPlannersShareTheTreesProfiles) {
  // Freshly built trees, so four planners race for the first profile walk
  // of each (sessions plan concurrently). The fixture's trees hold the same
  // objects, built the same way: their plan is the reference.
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation r(*big_rects_, topt);
  const IndexedRelation s(*small_rects_, topt);
  const PlanChoice reference =
      PlanPairJoin(big_->tree(), small_->tree(), PlannerOptions{});

  constexpr int kThreads = 4;
  std::vector<PlanChoice> plans(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      plans[t] = PlanPairJoin(r.tree(), s.tree(), PlannerOptions{});
    });
  }
  for (auto& t : threads) t.join();
  for (const PlanChoice& plan : plans) {
    EXPECT_EQ(plan.Describe(), reference.Describe());
    EXPECT_EQ(plan.estimate.node_pairs, reference.estimate.node_pairs);
    EXPECT_EQ(plan.estimate.page_reads, reference.estimate.page_reads);
    EXPECT_EQ(plan.estimate.sj1_comparisons,
              reference.estimate.sj1_comparisons);
    EXPECT_EQ(plan.estimate.result_pairs, reference.estimate.result_pairs);
  }
}

TEST_F(PlannerTest, PricedRasterDecisionChargesUnprovenPairs) {
  // Dense objects smaller than a grid cell (cell = 1/8 of the space at 3
  // bits, objects at most 0.08 wide) with ~25 estimated candidates per
  // object. Signatures are a cell or two, so the build is cheap, but no
  // chain crosses a whole cell: no candidate can be proven TRUE-HIT, and
  // each is charged its merge-scan AND its exact test. (bench_refinement
  // measures this input: the two-tier path is the slower one.)
  const std::vector<Rect> dense_rects = testutil::RandomRects(4000, 33, 0.08);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation dense(dense_rects, topt);
  PlannerOptions popt;
  popt.raster_grid_bits = 3;
  PlanChoice plan = PlanPairJoin(dense.tree(), dense.tree(), popt,
                                 /*exact_geometry=*/true);
  ASSERT_GT(plan.estimate.result_pairs, 10.0 * dense_rects.size());
  EXPECT_DOUBLE_EQ(plan.exact_cost, plan.estimate.result_pairs);
  EXPECT_GT(plan.raster_cost, plan.exact_cost);
  EXPECT_FALSE(plan.refine_raster);
  // Both priced costs sit next to the decision in the audit record.
  const std::string described = plan.Describe();
  EXPECT_NE(described.find("raster=0 raster_cost="), std::string::npos);
  EXPECT_NE(described.find("exact_cost="), std::string::npos);
  // The grid bits flow through ApplyPlan along with the decision.
  JoinOptions join;
  ParallelExecutorOptions exec;
  join.refine_raster = true;
  ApplyPlan(plan, &join, &exec);
  EXPECT_FALSE(join.refine_raster);
  EXPECT_EQ(join.raster_grid_bits, 3u);

  // Long horizontal x vertical segments on a 64-cell grid: most
  // candidates cross inside a cell both chains traverse fully, so few
  // pay the exact test, but every one still merge-scans two ~17-cell
  // signatures — more than one segment test.
  Rng rng(34);
  std::vector<Rect> across, down;
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<Coord>(rng.Uniform(0.0, 0.75));
    const auto y = static_cast<Coord>(rng.Uniform());
    across.push_back(Rect{x, y, x + 0.25f, y});
    down.push_back(Rect{y, x, y, x + 0.25f});
  }
  const IndexedRelation ra(across, topt);
  const IndexedRelation rd(down, topt);
  popt.raster_grid_bits = 6;
  plan = PlanPairJoin(ra.tree(), rd.tree(), popt, /*exact_geometry=*/true);
  ASSERT_GT(plan.estimate.result_pairs, 10.0 * across.size());
  EXPECT_GT(plan.raster_cost, plan.exact_cost);
  EXPECT_FALSE(plan.refine_raster);
  ApplyPlan(plan, &join, &exec);
  EXPECT_EQ(join.raster_grid_bits, 6u);

  // Shrinking the cells lengthens every signature: the price only grows.
  const double raster_cost_at_6_bits = plan.raster_cost;
  popt.raster_grid_bits = 14;
  plan = PlanPairJoin(ra.tree(), rd.tree(), popt, /*exact_geometry=*/true);
  EXPECT_GT(plan.raster_cost, raster_cost_at_6_bits);
  EXPECT_FALSE(plan.refine_raster);

  // Test E's long 2-vertex region boundaries plan exact-only refinement.
  const Workload e = MakeWorkload(TestCase::kE, 0.02);
  const IndexedRelation er(e.r.Mbrs(), topt);
  const IndexedRelation es(e.s.Mbrs(), topt);
  plan = PlanPairJoin(er.tree(), es.tree(), PlannerOptions{},
                      /*exact_geometry=*/true);
  ASSERT_GT(plan.exact_cost, 0.0);
  EXPECT_GT(plan.raster_cost, plan.exact_cost);
  EXPECT_FALSE(plan.refine_raster);
  EXPECT_NE(plan.Describe().find("raster=0"), std::string::npos);

  // An MBR-only query never plans the tier and prices nothing.
  popt.raster_grid_bits = 3;
  plan = PlanPairJoin(dense.tree(), dense.tree(), popt);
  EXPECT_FALSE(plan.refine_raster);
  EXPECT_EQ(plan.raster_cost, 0.0);
  EXPECT_EQ(plan.exact_cost, 0.0);
}

// ---------------------------------------------------------------------------
// QueryEngine

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    rects_r_ = new std::vector<Rect>(testutil::ClusteredRects(900, 41, 5));
    rects_s_ = new std::vector<Rect>(testutil::ClusteredRects(800, 42, 5));
    rects_t_ = new std::vector<Rect>(testutil::ClusteredRects(700, 43, 5));
    rel_r_ = new IndexedRelation(*rects_r_, topt);
    rel_s_ = new IndexedRelation(*rects_s_, topt);
    rel_t_ = new IndexedRelation(*rects_t_, topt);
  }
  static void TearDownTestSuite() {
    delete rel_r_;
    delete rel_s_;
    delete rel_t_;
    delete rects_r_;
    delete rects_s_;
    delete rects_t_;
    rel_r_ = rel_s_ = rel_t_ = nullptr;
    rects_r_ = rects_s_ = rects_t_ = nullptr;
  }

  static QueryEngine::Options EngineOptions() {
    QueryEngine::Options opt;
    opt.pool.capacity_bytes = 256 * 1024;
    opt.pool.page_size = kPageSize1K;
    opt.io.disks.disk_count = 2;
    opt.pool_threads = 4;
    opt.session_threads = 2;
    opt.max_concurrent_sessions = 8;
    return opt;
  }

  static std::vector<Rect>* rects_r_;
  static std::vector<Rect>* rects_s_;
  static std::vector<Rect>* rects_t_;
  static IndexedRelation* rel_r_;
  static IndexedRelation* rel_s_;
  static IndexedRelation* rel_t_;
};

std::vector<Rect>* QueryEngineTest::rects_r_ = nullptr;
std::vector<Rect>* QueryEngineTest::rects_s_ = nullptr;
std::vector<Rect>* QueryEngineTest::rects_t_ = nullptr;
IndexedRelation* QueryEngineTest::rel_r_ = nullptr;
IndexedRelation* QueryEngineTest::rel_s_ = nullptr;
IndexedRelation* QueryEngineTest::rel_t_ = nullptr;

TEST_F(QueryEngineTest, ConcurrentSessionsMatchSerialForEveryAlgorithm) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const JoinRunResult serial =
      RunSpatialJoin(rel_r_->tree(), rel_s_->tree(), jopt, true);
  const auto expected = testutil::Canonical(serial.chunks);

  const JoinAlgorithm algorithms[] = {
      JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
      JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
      JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5,
  };
  QueryEngine engine(EngineOptions());
  std::vector<QuerySession*> sessions;
  for (const JoinAlgorithm algorithm : algorithms) {
    QuerySpec spec;
    spec.relations = {{&rel_r_->tree(), rects_r_},
                      {&rel_s_->tree(), rects_s_}};
    spec.join.algorithm = algorithm;
    spec.use_planner = false;  // pin the variant under test
    sessions.push_back(engine.Submit(std::move(spec)));
  }
  engine.WaitAll();

  for (QuerySession* session : sessions) {
    ASSERT_EQ(session->state(), SessionState::kFinished);
    const QueryOutcome& outcome = session->outcome();
    EXPECT_EQ(outcome.result_count, serial.pair_count);
    EXPECT_EQ(testutil::Canonical(outcome.pair.chunks), expected);
    // Per-session statistics never bleed: each session's counters
    // describe exactly its own run.
    EXPECT_EQ(outcome.pair.total_stats.output_pairs, serial.pair_count);
  }
  const QueryEngine::Telemetry tel = engine.telemetry();
  EXPECT_EQ(tel.sessions_submitted, 6u);
  EXPECT_EQ(tel.sessions_finished, 6u);
  EXPECT_EQ(tel.sessions_shed, 0u);
  // Every session collected through a governed gauge, and every lease was
  // returned by the end of the batch.
  EXPECT_GT(engine.governor().category_peak(MemoryCategory::kResultChunks),
            0u);
  EXPECT_EQ(engine.governor().category_live(MemoryCategory::kResultChunks),
            0u);
  EXPECT_EQ(engine.governor().leased_bytes(), 0u);
}

TEST_F(QueryEngineTest, ChainSessionMatchesSequential) {
  const std::vector<JoinRelation> chain = {{&rel_r_->tree(), rects_r_},
                                           {&rel_s_->tree(), rects_s_},
                                           {&rel_t_->tree(), rects_t_}};
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  MultiwayJoinResult sequential = RunChainSpatialJoin(chain, jopt, true);
  std::sort(sequential.tuples.begin(), sequential.tuples.end());

  QueryEngine engine(EngineOptions());
  QuerySpec spec;
  spec.relations = chain;
  spec.join = jopt;
  spec.use_planner = false;
  QuerySession* session = engine.Submit(std::move(spec));
  engine.WaitAll();

  ASSERT_EQ(session->state(), SessionState::kFinished);
  const QueryOutcome& outcome = session->outcome();
  ASSERT_TRUE(outcome.is_chain);
  EXPECT_EQ(outcome.result_count, sequential.tuple_count);
  auto tuples = outcome.chain.tuples;
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(tuples, sequential.tuples);
}

TEST_F(QueryEngineTest, OneThreadSessionsReadThroughTheEnginesPool) {
  // At one worker slot a pair session and a chain session each run as one
  // partition on the engine's pool and scheduler. The pool holds every
  // tree, so the second batch reads no page from disk.
  const std::vector<JoinRelation> chain = {{&rel_r_->tree(), rects_r_},
                                           {&rel_s_->tree(), rects_s_},
                                           {&rel_t_->tree(), rects_t_}};
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const JoinRunResult serial =
      RunSpatialJoin(rel_r_->tree(), rel_s_->tree(), jopt, true);
  MultiwayJoinResult sequential = RunChainSpatialJoin(chain, jopt, true);
  std::sort(sequential.tuples.begin(), sequential.tuples.end());

  QueryEngine::Options opt = EngineOptions();
  opt.session_threads = 1;
  QueryEngine engine(opt);
  for (int batch = 0; batch < 2; ++batch) {
    QuerySpec pair_spec;
    pair_spec.relations = {chain[0], chain[1]};
    pair_spec.join = jopt;
    pair_spec.use_planner = false;
    QuerySpec chain_spec;
    chain_spec.relations = chain;
    chain_spec.join = jopt;
    chain_spec.use_planner = false;
    QuerySession* pair = engine.Submit(std::move(pair_spec));
    QuerySession* chained = engine.Submit(std::move(chain_spec));
    engine.WaitAll();

    ASSERT_EQ(pair->state(), SessionState::kFinished);
    const ParallelJoinResult& p = pair->outcome().pair;
    EXPECT_EQ(testutil::Canonical(p.chunks),
              testutil::Canonical(serial.chunks));
    EXPECT_EQ(p.worker_stats.size(), 1u);
    ASSERT_EQ(chained->state(), SessionState::kFinished);
    const ParallelChainJoinResult& c = chained->outcome().chain;
    auto tuples = c.tuples;
    std::sort(tuples.begin(), tuples.end());
    EXPECT_EQ(tuples, sequential.tuples);
    EXPECT_EQ(c.worker_stats.size(), 1u);
    if (batch == 0) {
      // The first batch reads on the engine's modeled disks.
      EXPECT_GT(p.total_stats.disk_reads + c.total_stats.disk_reads, 0u);
      EXPECT_GT(engine.telemetry().last_makespan_micros, 0u);
    } else {
      EXPECT_EQ(p.total_stats.disk_reads, 0u);
      EXPECT_EQ(c.total_stats.disk_reads, 0u);
    }
  }
}

TEST_F(QueryEngineTest, AdmissionQueuesAndShedsDeterministically) {
  QueryEngine::Options opt = EngineOptions();
  opt.max_concurrent_sessions = 1;
  opt.queue_limit = 1;
  QueryEngine engine(opt);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  QuerySpec first;
  first.relations = {{&rel_r_->tree(), rects_r_}, {&rel_s_->tree(), rects_s_}};
  first.use_planner = false;
  first.before_run = [&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  QuerySpec second = first;
  second.before_run = nullptr;
  QuerySpec third = first;
  third.before_run = nullptr;

  QuerySession* s1 = engine.Submit(std::move(first));
  EXPECT_EQ(s1->state(), SessionState::kRunning);  // holds the only slot
  QuerySession* s2 = engine.Submit(std::move(second));
  EXPECT_EQ(s2->state(), SessionState::kQueued);
  QuerySession* s3 = engine.Submit(std::move(third));
  EXPECT_EQ(s3->state(), SessionState::kShed);  // queue_limit = 1

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  engine.WaitAll();

  EXPECT_EQ(s1->state(), SessionState::kFinished);
  EXPECT_EQ(s2->state(), SessionState::kFinished);
  EXPECT_EQ(s1->outcome().result_count, s2->outcome().result_count);
  const QueryEngine::Telemetry tel = engine.telemetry();
  EXPECT_EQ(tel.sessions_submitted, 3u);
  EXPECT_EQ(tel.sessions_admitted, 2u);
  EXPECT_EQ(tel.sessions_queued, 1u);
  EXPECT_EQ(tel.sessions_shed, 1u);
  EXPECT_EQ(tel.sessions_finished, 2u);
  EXPECT_EQ(tel.peak_running, 1u);
}

TEST_F(QueryEngineTest, GovernorLeaseGatesAdmission) {
  QueryEngine::Options opt = EngineOptions();
  opt.session_reserve_bytes = 1 << 20;
  opt.memory_budget_bytes = (1 << 20) + (1 << 19);  // fits one reservation
  opt.max_concurrent_sessions = 4;                  // slots are NOT the gate
  QueryEngine engine(opt);

  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  QuerySpec first;
  first.relations = {{&rel_r_->tree(), rects_r_}, {&rel_s_->tree(), rects_s_}};
  first.use_planner = false;
  first.before_run = [&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  QuerySpec second = first;
  second.before_run = nullptr;

  QuerySession* s1 = engine.Submit(std::move(first));
  EXPECT_EQ(s1->state(), SessionState::kRunning);
  QuerySession* s2 = engine.Submit(std::move(second));
  // A slot is free, but the governor refuses a second reservation.
  EXPECT_EQ(s2->state(), SessionState::kQueued);
  EXPECT_EQ(
      engine.governor().category_live(MemoryCategory::kSessionReservations),
      static_cast<uint64_t>(1 << 20));

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  engine.WaitAll();

  EXPECT_EQ(s1->state(), SessionState::kFinished);
  EXPECT_EQ(s2->state(), SessionState::kFinished);
  const QueryEngine::Telemetry tel = engine.telemetry();
  EXPECT_EQ(tel.sessions_queued, 1u);
  EXPECT_EQ(tel.peak_running, 1u);  // never two concurrent reservations
  EXPECT_EQ(
      engine.governor().category_peak(MemoryCategory::kSessionReservations),
      static_cast<uint64_t>(1 << 20));
  EXPECT_EQ(
      engine.governor().category_live(MemoryCategory::kSessionReservations),
      0u);
}

TEST_F(QueryEngineTest, PlannerSwitchesVariantsAcrossWorkloads) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<Rect> tiny_rects = testutil::RandomRects(60, 51);
  IndexedRelation tiny(tiny_rects, topt);

  const JoinCostEstimate est_tiny =
      EstimateJoinCost(tiny.tree(), tiny.tree());
  const JoinCostEstimate est_big =
      EstimateJoinCost(rel_r_->tree(), rel_s_->tree());
  ASSERT_LT(est_tiny.sj1_comparisons, est_big.sj1_comparisons);

  QueryEngine::Options opt = EngineOptions();
  // Place the nested-loop ceiling between the two workloads, so the
  // planner demonstrably picks different variants for them.
  opt.planner.sj1_comparison_ceiling =
      (est_tiny.sj1_comparisons + est_big.sj1_comparisons) / 2;
  opt.planner.zorder_page_read_floor = est_big.page_reads * 2;
  opt.planner.spill_pair_floor = 1e18;  // keep results materialized here
  QueryEngine engine(opt);

  QuerySpec small_query;
  small_query.relations = {{&tiny.tree(), &tiny_rects},
                           {&tiny.tree(), &tiny_rects}};
  QuerySpec big_query;
  big_query.relations = {{&rel_r_->tree(), rects_r_},
                         {&rel_s_->tree(), rects_s_}};
  QuerySession* small_session = engine.Submit(std::move(small_query));
  QuerySession* big_session = engine.Submit(std::move(big_query));
  engine.WaitAll();

  ASSERT_EQ(small_session->state(), SessionState::kFinished);
  ASSERT_EQ(big_session->state(), SessionState::kFinished);
  ASSERT_TRUE(small_session->outcome().planned);
  ASSERT_TRUE(big_session->outcome().planned);
  EXPECT_EQ(small_session->outcome().plan.algorithm, JoinAlgorithm::kSJ1);
  EXPECT_EQ(big_session->outcome().plan.algorithm, JoinAlgorithm::kSJ4);
  // The audit record survives in the outcome.
  EXPECT_NE(big_session->outcome().plan.Describe().find("algo=SJ4"),
            std::string::npos);

  // Planned runs still return the exact serial result.
  JoinOptions jopt;
  const JoinRunResult serial =
      RunSpatialJoin(rel_r_->tree(), rel_s_->tree(), jopt, false);
  EXPECT_EQ(big_session->outcome().result_count, serial.pair_count);
}

TEST_F(QueryEngineTest, RepeatedBatchesReuseTheEngine) {
  QueryEngine engine(EngineOptions());
  JoinOptions jopt;
  const JoinRunResult serial =
      RunSpatialJoin(rel_r_->tree(), rel_s_->tree(), jopt, false);
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<QuerySession*> sessions;
    for (int i = 0; i < 3; ++i) {
      QuerySpec spec;
      spec.relations = {{&rel_r_->tree(), rects_r_},
                        {&rel_s_->tree(), rects_s_}};
      spec.use_planner = false;
      spec.collect = false;
      sessions.push_back(engine.Submit(std::move(spec)));
    }
    engine.WaitAll();
    for (QuerySession* session : sessions) {
      EXPECT_EQ(session->outcome().result_count, serial.pair_count);
    }
  }
  EXPECT_EQ(engine.telemetry().sessions_finished, 6u);
}

}  // namespace
}  // namespace rsj
