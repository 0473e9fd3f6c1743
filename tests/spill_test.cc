// Tests for the spill-to-disk result path (exec/spill_sink.h): block
// serialization round trips, budget admission, spilling sinks (resident
// ceiling + reread identity, sequential and parallel across all
// algorithms), the multiway tuple spill, the modeled
// write/read costing over the IoScheduler, and the streaming refinement
// built on top. The parallel suites double as the TSan targets for the
// concurrent spill writers.

#include "exec/spill_sink.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datagen/tiger_like.h"
#include "exec/multiway_executor.h"
#include "exec/parallel_executor.h"
#include "geom/segment.h"
#include "io/io_scheduler.h"
#include "join/refinement.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// --- SpillFile -------------------------------------------------------------

TEST(SpillFileTest, BlocksRoundTripAcrossPageBoundaries) {
  SpillFile file(SpillFile::Options{/*page_size=*/256, /*io=*/nullptr});
  Statistics stats;
  std::vector<SpillFile::BlockRef> refs;
  std::vector<std::vector<uint32_t>> blocks;
  // Sizes straddle the 64-words-per-page boundary: sub-page, exact page,
  // multi-page with a partial tail.
  for (const size_t words : {3u, 64u, 65u, 200u, 1u}) {
    std::vector<uint32_t> block;
    block.reserve(words);
    for (size_t i = 0; i < words; ++i) {
      block.push_back(static_cast<uint32_t>(1000 * refs.size() + i));
    }
    refs.push_back(file.AppendBlock(block, &stats));
    blocks.push_back(std::move(block));
  }
  EXPECT_EQ(file.blocks_written(), refs.size());
  EXPECT_EQ(stats.result_chunks_spilled, refs.size());
  EXPECT_EQ(stats.result_spill_bytes, file.pages_written() * 256);
  EXPECT_EQ(stats.disk_writes, file.pages_written());
  std::vector<uint32_t> out;
  for (size_t i = 0; i < refs.size(); ++i) {
    file.ReadBlock(refs[i], &out, &stats);
    EXPECT_EQ(out, blocks[i]) << "block " << i;
  }
  EXPECT_EQ(stats.disk_reads, file.pages_written());
}

TEST(SpillFileTest, WritesAndRereadsAreCostedOnTheScheduler) {
  IoScheduler::Options sopt;
  sopt.disks.disk_count = 2;
  IoScheduler io(sopt);
  SpillFile file(SpillFile::Options{kPageSize1K, &io});
  Statistics stats;
  std::vector<uint32_t> block(1000, 7);  // 4000 bytes -> 4 pages
  const SpillFile::BlockRef ref = file.AppendBlock(block, &stats);
  EXPECT_EQ(ref.page_count, 4u);
  EXPECT_EQ(stats.disk_writes, 4u);
  EXPECT_EQ(io.disk_writes(), 4u);
  EXPECT_GT(stats.modeled_io_micros, 0u);
  const uint64_t after_write = stats.modeled_io_micros;
  std::vector<uint32_t> out;
  file.ReadBlock(ref, &out, &stats);
  EXPECT_EQ(out, block);
  EXPECT_EQ(stats.disk_reads, 4u);
  EXPECT_GT(stats.modeled_io_micros, after_write);
}

// --- ResidentBudget --------------------------------------------------------

TEST(ResidentBudgetTest, AdmitsExactlyBudgetAndTracksPeak) {
  ResidentBudget budget(3);
  EXPECT_TRUE(budget.TryAdmit());
  EXPECT_TRUE(budget.TryAdmit());
  EXPECT_TRUE(budget.TryAdmit());
  EXPECT_FALSE(budget.TryAdmit());
  EXPECT_FALSE(budget.TryAdmit());
  EXPECT_EQ(budget.live(), 3u);
  EXPECT_EQ(budget.peak(), 3u);
}

// --- SpillingSink ----------------------------------------------------------

TEST(SpillingSinkTest, SpillsPastBudgetAndRereadsIdentically) {
  ChunkArena arena(ChunkArena::Options{/*chunk_capacity=*/32});
  SpillFile file(SpillFile::Options{/*page_size=*/256, /*io=*/nullptr});
  ResidentBudget budget(2);
  Statistics stats;
  SpillingSink sink(arena, &file, &budget, &stats);
  const size_t n = 10 * 32 + 5;  // 10 full chunks + 1 partial
  for (uint32_t i = 0; i < n; ++i) sink.Add(i, 2 * i);
  SpilledResult result = sink.TakeResult();
  EXPECT_EQ(result.pair_count, n);
  EXPECT_EQ(result.resident.chunk_count(), 2u);
  EXPECT_EQ(result.spilled_chunk_count(), 9u);
  EXPECT_EQ(stats.result_chunks_spilled, 9u);
  EXPECT_GT(stats.result_spill_bytes, 0u);
  EXPECT_EQ(budget.peak(), 2u);
  // Spilled blocks recycled straight back into the arena's free list.
  EXPECT_GT(arena.free_chunks(), 0u);
  // The reader streams resident chunks first, then the spilled ones, in
  // production order within each class — the pair *set* is the input.
  result.file = std::shared_ptr<SpillFile>(&file, [](SpillFile*) {});
  std::set<std::pair<uint32_t, uint32_t>> seen;
  SpilledResultReader reader(&result, &stats);
  std::span<const ResultPair> chunk;
  uint64_t streamed = 0;
  while (reader.Next(&chunk)) {
    for (const ResultPair& p : chunk) {
      EXPECT_EQ(p.s, 2 * p.r);
      seen.insert({p.r, p.s});
      ++streamed;
    }
  }
  EXPECT_EQ(streamed, n);
  EXPECT_EQ(seen.size(), n);
  // Reset rewinds to the first chunk.
  reader.Reset();
  ASSERT_TRUE(reader.Next(&chunk));
  EXPECT_GT(chunk.size(), 0u);
}

// --- parallel executor with spilling sinks ---------------------------------

class SpillExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    rects_r_ = new std::vector<Rect>(testutil::ClusteredRects(1200, 951));
    rects_s_ = new std::vector<Rect>(testutil::ClusteredRects(1000, 952));
    r_ = new IndexedRelation(*rects_r_, topt);
    s_ = new IndexedRelation(*rects_s_, topt);
  }
  static void TearDownTestSuite() {
    delete r_;
    delete s_;
    delete rects_r_;
    delete rects_s_;
    r_ = nullptr;
    s_ = nullptr;
    rects_r_ = nullptr;
    rects_s_ = nullptr;
  }
  static std::vector<Rect>* rects_r_;
  static std::vector<Rect>* rects_s_;
  static IndexedRelation* r_;
  static IndexedRelation* s_;
};

std::vector<Rect>* SpillExecTest::rects_r_ = nullptr;
std::vector<Rect>* SpillExecTest::rects_s_ = nullptr;
IndexedRelation* SpillExecTest::r_ = nullptr;
IndexedRelation* SpillExecTest::s_ = nullptr;

TEST_F(SpillExecTest, SpilledMatchesOracleForAllAlgorithms) {
  const auto expected =
      testutil::PairOracle(*rects_r_, *rects_s_, JoinOptions{});
  for (const JoinAlgorithm alg :
       {JoinAlgorithm::kSJ1, JoinAlgorithm::kSJ2,
        JoinAlgorithm::kSweepUnrestricted, JoinAlgorithm::kSJ3,
        JoinAlgorithm::kSJ4, JoinAlgorithm::kSJ5}) {
    JoinOptions jopt;
    jopt.algorithm = alg;
    jopt.buffer_bytes = 32 * 1024;
    for (const unsigned threads : {1u, 4u}) {
      ParallelExecutorOptions exec;
      exec.num_threads = threads;
      exec.collect_pairs = true;
      exec.spill_results = true;
      exec.spill_budget_chunks = 2;
      exec.chunk_capacity = 8;  // ~20 chunks of result: always spills
      auto spilling =
          RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
      EXPECT_EQ(spilling.pair_count, expected.size())
          << JoinAlgorithmName(alg) << " threads=" << threads;
      EXPECT_TRUE(spilling.chunks.empty());
      Statistics read_stats;
      EXPECT_EQ(testutil::Canonical(spilling.spilled.CopyPairs(&read_stats)),
                expected)
          << JoinAlgorithmName(alg) << " threads=" << threads;
      EXPECT_LE(spilling.total_stats.result_peak_chunks_resident,
                exec.spill_budget_chunks);
      EXPECT_GT(spilling.total_stats.result_chunks_spilled, 0u);
    }
  }
}

TEST_F(SpillExecTest, ResidentCeilingHoldsUnderTinyBudgetManyThreads) {
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 8;
  exec.collect_pairs = true;
  exec.spill_results = true;
  exec.spill_budget_chunks = 1;
  exec.chunk_capacity = 16;
  auto spilling = RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
  EXPECT_LE(spilling.total_stats.result_peak_chunks_resident, 1u);
  EXPECT_LE(spilling.spilled.resident.chunk_count(), 1u);
  EXPECT_GT(spilling.total_stats.result_chunks_spilled, 0u);
  EXPECT_EQ(spilling.spilled.pair_count, spilling.pair_count);
  // The materialized A/B twin reports its whole result as the peak.
  exec.spill_results = false;
  auto materialized =
      RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
  EXPECT_EQ(materialized.total_stats.result_peak_chunks_resident,
            materialized.chunks.chunk_count());
  EXPECT_GT(materialized.total_stats.result_peak_chunks_resident,
            spilling.total_stats.result_peak_chunks_resident);
}

TEST_F(SpillExecTest, SpillWritesAreModeledOnTheDiskArray) {
  IoScheduler::Options sopt;
  sopt.disks.disk_count = 4;
  IoScheduler io(sopt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.collect_pairs = true;
  exec.spill_results = true;
  exec.spill_budget_chunks = 2;
  exec.chunk_capacity = 64;
  exec.io_scheduler = &io;
  auto spilling = RunParallelSpatialJoin(r_->tree(), s_->tree(), jopt, exec);
  EXPECT_GT(spilling.total_stats.result_chunks_spilled, 0u);
  EXPECT_GT(spilling.total_stats.disk_writes, 0u);
  EXPECT_EQ(io.disk_writes(), spilling.total_stats.disk_writes);
  EXPECT_GT(spilling.modeled_elapsed_micros, 0u);
  // Rereading the spilled chunks pays modeled read time on the same array.
  Statistics read_stats;
  const auto pairs = spilling.spilled.CopyPairs(&read_stats);
  EXPECT_EQ(pairs.size(), spilling.pair_count);
  EXPECT_GT(read_stats.disk_reads, 0u);
  EXPECT_GT(read_stats.modeled_io_micros, 0u);
}

// The one-thread executor runs on the caller's scheduler like every other
// shape: its spill writes are modeled time the run reports, and the run
// closes its window, so no actor clock is left live afterwards.
TEST(SpillModeledTest, OneThreadSpillingRunReportsItsModeledTime) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const IndexedRelation r(testutil::RandomRects(2000, 4101, 0.01), topt);
  const IndexedRelation s(testutil::RandomRects(2000, 4102, 0.01), topt);
  IoScheduler::Options sopt;
  sopt.disks.disk_count = 2;
  IoScheduler io(sopt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  ParallelExecutorOptions exec;
  exec.num_threads = 1;
  exec.collect_pairs = true;
  exec.spill_results = true;
  exec.spill_budget_chunks = 1;
  exec.chunk_capacity = 16;
  exec.io_scheduler = &io;
  const uint64_t clock_before = io.NowMicros();
  const auto run = RunParallelSpatialJoin(r.tree(), s.tree(), jopt, exec);
  ASSERT_GT(run.total_stats.result_chunks_spilled, 0u);
  EXPECT_EQ(io.disk_writes(), run.total_stats.disk_writes);
  EXPECT_GT(run.modeled_elapsed_micros, 0u);
  EXPECT_EQ(run.modeled_elapsed_micros, io.NowMicros() - clock_before);
  EXPECT_EQ(io.FloorMicros(), io.NowMicros());
  // The private buffer keeps the sequential join's read counts.
  EXPECT_EQ(run.total_stats.disk_reads,
            RunSpatialJoin(r.tree(), s.tree(), jopt).stats.disk_reads);
}

// --- multiway tuple spill --------------------------------------------------

TEST(SpillMultiwayTest, SpilledTuplesMatchCollected) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<std::vector<Rect>> rects = {
      testutil::ClusteredRects(500, 981, 5, 0.02),
      testutil::ClusteredRects(450, 982, 5, 0.02),
      testutil::ClusteredRects(400, 983, 5, 0.02),
  };
  std::vector<IndexedRelation> relations;
  relations.reserve(rects.size());
  for (const auto& r : rects) relations.emplace_back(r, topt);
  std::vector<JoinRelation> chain;
  for (size_t i = 0; i < rects.size(); ++i) {
    chain.push_back({&relations[i].tree(), &rects[i]});
  }
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;

  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.chunk_capacity = 16;
  auto collected = RunParallelChainSpatialJoin(chain, jopt, exec, true);
  std::sort(collected.tuples.begin(), collected.tuples.end());

  exec.spill_results = true;
  exec.spill_budget_chunks = 2;
  auto spilled = RunParallelChainSpatialJoin(chain, jopt, exec, true);
  EXPECT_EQ(spilled.tuple_count, collected.tuple_count);
  EXPECT_TRUE(spilled.tuples.empty());
  EXPECT_EQ(spilled.spilled_tuples.tuple_count, collected.tuple_count);
  EXPECT_LE(spilled.total_stats.result_peak_chunks_resident, 2u);
  EXPECT_GT(spilled.total_stats.result_chunks_spilled, 0u);
  // The collected twin reports its whole output in chunk units.
  EXPECT_GT(collected.total_stats.result_peak_chunks_resident, 2u);

  Statistics read_stats;
  auto tuples = spilled.spilled_tuples.CopyTuples(&read_stats);
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(tuples, collected.tuples);
  EXPECT_GT(read_stats.disk_reads, 0u);
}

TEST(SpillMultiwayTest, TwoRelationChainHonorsSpillResults) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  const std::vector<std::vector<Rect>> rects = {
      testutil::ClusteredRects(600, 1201, 5, 0.02),
      testutil::ClusteredRects(550, 1202, 5, 0.02),
  };
  std::vector<IndexedRelation> relations;
  relations.reserve(rects.size());
  for (const auto& r : rects) relations.emplace_back(r, topt);
  std::vector<JoinRelation> chain;
  for (size_t i = 0; i < rects.size(); ++i) {
    chain.push_back({&relations[i].tree(), &rects[i]});
  }
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;

  ParallelExecutorOptions exec;
  exec.num_threads = 4;
  exec.chunk_capacity = 16;
  auto collected = RunParallelChainSpatialJoin(chain, jopt, exec, true);
  std::sort(collected.tuples.begin(), collected.tuples.end());
  ASSERT_FALSE(collected.tuples.empty());

  exec.spill_results = true;
  exec.spill_budget_chunks = 2;
  auto spilled = RunParallelChainSpatialJoin(chain, jopt, exec, true);
  EXPECT_EQ(spilled.tuple_count, collected.tuple_count);
  EXPECT_TRUE(spilled.tuples.empty());
  EXPECT_EQ(spilled.spilled_tuples.arity, 2u);
  EXPECT_LE(spilled.total_stats.result_peak_chunks_resident, 2u);
  EXPECT_GT(spilled.total_stats.result_chunks_spilled, 0u);

  Statistics read_stats;
  auto tuples = spilled.spilled_tuples.CopyTuples(&read_stats);
  std::sort(tuples.begin(), tuples.end());
  EXPECT_EQ(tuples, collected.tuples);
  EXPECT_GT(read_stats.disk_reads, 0u);
}

// --- streaming refinement --------------------------------------------------

TEST(SpillRefinementTest, StreamingMatchesInlineAndBruteForce) {
  StreetsConfig sc;
  sc.object_count = 600;
  RiversConfig rc;
  rc.object_count = 500;
  const Dataset streets = GenerateStreets(sc);
  const Dataset rivers = GenerateRivers(rc);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile fr(topt.page_size);
  PagedFile fs(topt.page_size);
  const auto mr = streets.Mbrs();
  const auto ms = rivers.Mbrs();
  const RTree tr = BuildRTree(&fr, mr, topt);
  const RTree ts = BuildRTree(&fs, ms, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;

  const IdJoinResult inline_result =
      RunIdSpatialJoin(tr, streets, ts, rivers, jopt);

  std::vector<std::pair<uint32_t, uint32_t>> expected_refined;
  for (const SpatialObject& a : streets.objects) {
    for (const SpatialObject& b : rivers.objects) {
      if (!a.mbr.Intersects(b.mbr)) continue;
      if (PolylinesIntersect(std::span<const Point>(a.chain),
                             std::span<const Point>(b.chain))) {
        expected_refined.push_back({a.id, b.id});
      }
    }
  }
  std::sort(expected_refined.begin(), expected_refined.end());

  for (const unsigned threads : {1u, 4u}) {
    StreamingRefineOptions ropts;
    ropts.chunk_capacity = 32;
    ropts.filter_budget_chunks = 2;
    ropts.refine_budget_chunks = 2;
    ropts.num_threads = threads;
    ropts.collect_result_pairs = true;
    const StreamingIdJoinResult streaming =
        RunIdSpatialJoinStreaming(tr, streets, ts, rivers, jopt, ropts);
    EXPECT_EQ(streaming.candidate_pairs, inline_result.candidate_pairs)
        << "threads=" << threads;
    EXPECT_EQ(streaming.result_pairs, inline_result.result_pairs)
        << "threads=" << threads;
    EXPECT_EQ(streaming.refined.pair_count, streaming.result_pairs);
    // Candidate and output residency overlap during refinement, so the
    // ceiling is the SUM of the two budgets.
    EXPECT_LE(streaming.stats.result_peak_chunks_resident,
              ropts.filter_budget_chunks + ropts.refine_budget_chunks);
    Statistics read_stats;
    EXPECT_EQ(testutil::Canonical(streaming.refined.CopyPairs(&read_stats)),
              expected_refined)
        << "threads=" << threads;
  }
}

TEST(SpillRefinementTest, CountingModeNeedsNoCollectedOutput) {
  StreetsConfig sc;
  sc.object_count = 300;
  const Dataset streets = GenerateStreets(sc);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile f(topt.page_size);
  const auto mbrs = streets.Mbrs();
  const RTree tree = BuildRTree(&f, mbrs, topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const IdJoinResult inline_result =
      RunIdSpatialJoin(tree, streets, tree, streets, jopt);
  StreamingRefineOptions ropts;
  ropts.chunk_capacity = 16;
  ropts.filter_budget_chunks = 1;
  const StreamingIdJoinResult streaming =
      RunIdSpatialJoinStreaming(tree, streets, tree, streets, jopt, ropts);
  EXPECT_EQ(streaming.candidate_pairs, inline_result.candidate_pairs);
  EXPECT_EQ(streaming.result_pairs, inline_result.result_pairs);
  EXPECT_TRUE(streaming.refined.empty());
  EXPECT_LE(streaming.stats.result_peak_chunks_resident, 1u);
  EXPECT_GT(streaming.stats.result_chunks_spilled, 0u);
}

}  // namespace
}  // namespace rsj
