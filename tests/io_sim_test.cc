// Tests for the simulated disk array and the I/O scheduler: striping,
// service-time math, sequential discounts, per-disk queueing in call order,
// modeled-clock semantics (sync vs async vs CPU overlap), request
// coalescing, and the end-to-end modeled win of prefetching over >= 2
// disks.

#include <gtest/gtest.h>

#include "io/disk_model.h"
#include "io/io_scheduler.h"
#include "join/join_runner.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// 1K pages: seek 15000 us, transfer 5000 us -> 20000 us per random read.
constexpr uint64_t kSeek = 15000;
constexpr uint64_t kTransfer1K = 5000;
constexpr uint64_t kRandom1K = kSeek + kTransfer1K;

TEST(DiskModelTest, RoundRobinStriping) {
  SimulatedDiskArray disks(DiskModelOptions{.disk_count = 4});
  EXPECT_EQ(disks.DiskFor(0), 0u);
  EXPECT_EQ(disks.DiskFor(1), 1u);
  EXPECT_EQ(disks.DiskFor(4), 0u);
  EXPECT_EQ(disks.DiskFor(7), 3u);
}

TEST(DiskModelTest, RandomReadCostsSeekPlusTransfer) {
  SimulatedDiskArray disks(DiskModelOptions{.disk_count = 1});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_EQ(disks.TransferMicros(kPageSize1K), kTransfer1K);
  EXPECT_EQ(disks.TransferMicros(kPageSize4K), 4 * kTransfer1K);
  EXPECT_EQ(disks.RandomReadMicros(kPageSize1K), kRandom1K);
  EXPECT_EQ(disks.Service(file, a, kPageSize1K, 0), kRandom1K);
}

TEST(DiskModelTest, SameDiskRequestsQueueBehindEachOther) {
  SimulatedDiskArray disks(DiskModelOptions{.disk_count = 2});
  PagedFile file(kPageSize1K);
  file.Allocate();  // page 0 -> disk 0
  file.Allocate();  // page 1 -> disk 1
  file.Allocate();  // page 2 -> disk 0
  PagedFile other(kPageSize1K);
  other.Allocate();  // page 0 of a different file -> disk 0
  // Both issued at t=0 on disk 0; the second (a different file, so no
  // sequential discount) waits for the first.
  EXPECT_EQ(disks.Service(file, 0, kPageSize1K, 0), kRandom1K);
  EXPECT_EQ(disks.Service(other, 0, kPageSize1K, 0), 2 * kRandom1K);
  // Disk 1 was idle the whole time.
  EXPECT_EQ(disks.Service(file, 1, kPageSize1K, 0), kRandom1K);
  EXPECT_EQ(disks.BusyUntil(0), 2 * kRandom1K);
  EXPECT_EQ(disks.BusyUntil(1), kRandom1K);
}

TEST(DiskModelTest, SequentialNextStripeUnitSkipsTheSeek) {
  SimulatedDiskArray disks(DiskModelOptions{.disk_count = 2});
  PagedFile file(kPageSize1K);
  for (int i = 0; i < 4; ++i) file.Allocate();
  // Pages 0 and 2 are consecutive stripe units of disk 0.
  EXPECT_EQ(disks.Service(file, 0, kPageSize1K, 0), kRandom1K);
  EXPECT_EQ(disks.Service(file, 2, kPageSize1K, 0),
            kRandom1K + kTransfer1K);  // no second seek
  // Re-reading the page the arm sits on is also seek-free.
  EXPECT_EQ(disks.Service(file, 2, kPageSize1K, 0),
            kRandom1K + 2 * kTransfer1K);
}

TEST(DiskModelTest, LateArrivalStartsAtItsIssueTime) {
  SimulatedDiskArray disks(DiskModelOptions{.disk_count = 1});
  PagedFile file(kPageSize1K);
  file.Allocate();
  const uint64_t issue = 123456;
  EXPECT_EQ(disks.Service(file, 0, kPageSize1K, issue), issue + kRandom1K);
}

// --- scheduler -------------------------------------------------------------

TEST(IoSchedulerTest, BlockingReadAdvancesClockAndChargesStall) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  Statistics stats;
  EXPECT_FALSE(io.BlockingRead(&io, file, a, kPageSize1K, &stats));
  EXPECT_EQ(io.NowMicros(), kRandom1K);
  EXPECT_EQ(stats.modeled_io_micros, kRandom1K);
}

TEST(IoSchedulerTest, AsyncReadsOverlapAcrossDisks) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();  // disk 0
  const PageId b = file.Allocate();  // disk 1
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K));
  EXPECT_TRUE(io.SubmitAsync(&io, file, b, kPageSize1K));
  EXPECT_EQ(io.NowMicros(), 0u);  // async work does not advance the clock
  Statistics stats;
  io.ConsumePrefetched(&io, file, a, &stats);
  io.ConsumePrefetched(&io, file, b, &stats);
  // Both serviced in parallel at t=0: the consumer stalls for one service
  // time in total, not two.
  EXPECT_EQ(io.NowMicros(), kRandom1K);
  EXPECT_EQ(stats.modeled_io_micros, kRandom1K);
  EXPECT_EQ(io.async_reads(), 2u);
}

TEST(IoSchedulerTest, DuplicateSubmitsCoalesce) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K));
  EXPECT_FALSE(io.SubmitAsync(&io, file, a, kPageSize1K));  // unconsumed
  EXPECT_EQ(io.async_reads(), 1u);
  Statistics stats;
  io.ConsumePrefetched(&io, file, a, &stats);
  // Consumed: a new submit is a genuine new read.
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K));
  EXPECT_EQ(io.async_reads(), 2u);
}

TEST(IoSchedulerTest, BlockingReadJoinsInflightAsyncRequest) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K));
  Statistics stats;
  EXPECT_TRUE(io.BlockingRead(&io, file, a, kPageSize1K, &stats));
  EXPECT_EQ(io.NowMicros(), kRandom1K);
  // The join consumed the completion; the next blocking read services anew.
  EXPECT_FALSE(io.BlockingRead(&io, file, a, kPageSize1K, &stats));
}

TEST(IoSchedulerTest, SameDiskRequestsServeInCallOrder) {
  // One actor submits `a` and then misses on `c`, which is not `a`'s next
  // stripe unit: the disk serves `a` first, so the blocking read queues
  // behind it and the actor's clock reaches two random reads.
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  file.Allocate();  // page 1: the stripe unit that would follow `a`
  const PageId c = file.Allocate();
  Statistics stats;
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K, &stats));
  EXPECT_FALSE(io.BlockingRead(&io, file, c, kPageSize1K, &stats));
  EXPECT_EQ(io.ActorClock(&stats),
            2 * io.disks().RandomReadMicros(kPageSize1K));
}

TEST(IoSchedulerTest, CpuAdvanceOverlapsWithAsyncService) {
  IoScheduler::Options options{.disks = {.disk_count = 1}};
  options.cpu_micros_per_read = 700;
  IoScheduler io(options);
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  Statistics stats;  // the consumer timeline (actor) of this test
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K, &stats));
  io.CpuAdvance(&stats, 5000);
  io.ChargeCpuPerRead(&stats);
  EXPECT_EQ(io.NowMicros(), 5700u);
  io.ConsumePrefetched(&io, file, a, &stats);
  // Service started at 0 and finished at kRandom1K; 5700 us of CPU ran in
  // parallel, so only the residual stall is charged.
  EXPECT_EQ(io.NowMicros(), kRandom1K);
  EXPECT_EQ(stats.modeled_io_micros, kRandom1K - 5700);
}

TEST(IoSchedulerTest, PerActorClocksOverlapAndMergeByMax) {
  // Two workers (actors) each pay one synchronous random read on disks of
  // their own: the modeled elapsed time of the pair is ONE service time
  // (they ran in parallel), not two — the per-worker-clock semantics the
  // parallel executors report through SynchronizeClocks().
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();  // disk 0
  const PageId b = file.Allocate();  // disk 1
  Statistics worker_a;
  Statistics worker_b;
  EXPECT_FALSE(io.BlockingRead(&io, file, a, kPageSize1K, &worker_a));
  EXPECT_FALSE(io.BlockingRead(&io, file, b, kPageSize1K, &worker_b));
  EXPECT_EQ(worker_a.modeled_io_micros, kRandom1K);
  EXPECT_EQ(worker_b.modeled_io_micros, kRandom1K);
  EXPECT_EQ(io.NowMicros(), kRandom1K);  // max, not sum
  EXPECT_EQ(io.SynchronizeClocks(), kRandom1K);
  // After the join point every new actor starts at the merged floor.
  Statistics worker_c;
  io.CpuAdvance(&worker_c, 100);
  EXPECT_EQ(io.NowMicros(), kRandom1K + 100);
}

TEST(IoSchedulerTest, SameActorSerializesItsOwnReads) {
  // One actor issuing two misses on different disks pays them back to
  // back: a single consumer timeline cannot overlap with itself.
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  const PageId b = file.Allocate();
  Statistics stats;
  io.BlockingRead(&io, file, a, kPageSize1K, &stats);
  io.BlockingRead(&io, file, b, kPageSize1K, &stats);
  EXPECT_EQ(stats.modeled_io_micros, 2 * kRandom1K);
  EXPECT_EQ(io.NowMicros(), 2 * kRandom1K);
}

// --- timed write path ------------------------------------------------------

TEST(DiskModelTest, WriteCostsLikeARead) {
  SimulatedDiskArray disks(DiskModelOptions{.disk_count = 1});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_EQ(disks.ServiceWrite(file, a, kPageSize1K, 0), kRandom1K);
  EXPECT_EQ(disks.writes_serviced(), 1u);
  EXPECT_EQ(disks.reads_serviced(), 0u);
  // Writes hold the arm like reads: a follow-up read queues behind and
  // rides the sequential discount (same page the arm sits on).
  EXPECT_EQ(disks.Service(file, a, kPageSize1K, 0), kRandom1K + kTransfer1K);
  EXPECT_EQ(disks.reads_serviced(), 1u);
}

TEST(IoSchedulerTest, WriteAdvancesActorClockAndCountsDiskWrites) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  Statistics stats;
  io.WriteRun(&io, file, a, 1, kPageSize1K, &stats);
  EXPECT_EQ(stats.disk_writes, 1u);
  EXPECT_EQ(stats.modeled_io_micros, kRandom1K);
  EXPECT_EQ(io.NowMicros(), kRandom1K);
  EXPECT_EQ(io.disk_writes(), 1u);
  // A second write of the page the arm sits on is seek-free.
  io.WriteRun(&io, file, a, 1, kPageSize1K, &stats);
  EXPECT_EQ(stats.disk_writes, 2u);
  EXPECT_EQ(io.NowMicros(), kRandom1K + kTransfer1K);
}

TEST(IoSchedulerTest, WritesOfDistinctActorsOverlapAcrossDisks) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();  // disk 0
  const PageId b = file.Allocate();  // disk 1
  Statistics worker_a;
  Statistics worker_b;
  io.WriteRun(&io, file, a, 1, kPageSize1K, &worker_a);
  io.WriteRun(&io, file, b, 1, kPageSize1K, &worker_b);
  EXPECT_EQ(io.disk_writes(), 2u);
  EXPECT_EQ(io.SynchronizeClocks(), kRandom1K);  // parallel, max-merged
}

TEST(IoSchedulerTest, CoalescingIsScopedPerOwner) {
  // Two private pools prefetching/reading the same page must each pay
  // their own physical read; only the disks are shared.
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  int owner_a = 0;
  int owner_b = 0;
  EXPECT_TRUE(io.SubmitAsync(&owner_a, file, a, kPageSize1K));
  // A different owner does not coalesce...
  EXPECT_TRUE(io.SubmitAsync(&owner_b, file, a, kPageSize1K));
  Statistics stats;
  // ...and a third owner's blocking read services its own request.
  int owner_c = 0;
  EXPECT_FALSE(io.BlockingRead(&owner_c, file, a, kPageSize1K, &stats));
  EXPECT_EQ(io.async_reads(), 2u);
}

TEST(IoSchedulerTest, AbandonedCompletionIsForgotten) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  EXPECT_TRUE(io.SubmitAsync(&io, file, a, kPageSize1K));
  io.AbandonPrefetched(&io, file, a);
  // The stale completion is gone: consuming is a no-op and a new blocking
  // read services (and pays) a genuine read.
  Statistics stats;
  io.ConsumePrefetched(&io, file, a, &stats);
  EXPECT_EQ(stats.modeled_io_micros, 0u);
  EXPECT_FALSE(io.BlockingRead(&io, file, a, kPageSize1K, &stats));
  EXPECT_GT(stats.modeled_io_micros, 0u);
}

TEST(IoSchedulerTest, ConsumeWithoutOutstandingRequestIsANoop) {
  IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 1}});
  PagedFile file(kPageSize1K);
  const PageId a = file.Allocate();
  Statistics stats;
  io.ConsumePrefetched(&io, file, a, &stats);
  EXPECT_EQ(io.NowMicros(), 0u);
  EXPECT_EQ(stats.modeled_io_micros, 0u);
}

// --- end to end ------------------------------------------------------------

TEST(IoSchedulerTest, PrefetchedJoinWinsModeledTimeOnTwoDisks) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(testutil::ClusteredRects(2500, 981), topt);
  IndexedRelation s(testutil::ClusteredRects(2200, 982), topt);
  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  jopt.buffer_bytes = 32 * 1024;

  uint64_t elapsed_off = 0;
  uint64_t elapsed_on = 0;
  JoinRunResult off;
  JoinRunResult on;
  {
    IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
    off = RunSpatialJoinWithIo(r.tree(), s.tree(), jopt, &io,
                               /*prefetch=*/false, 16, true, &elapsed_off);
  }
  {
    IoScheduler io(IoScheduler::Options{.disks = {.disk_count = 2}});
    on = RunSpatialJoinWithIo(r.tree(), s.tree(), jopt, &io,
                              /*prefetch=*/true, 16, true, &elapsed_on);
  }
  EXPECT_EQ(testutil::Canonical(on.chunks),
            testutil::Canonical(off.chunks));
  EXPECT_GT(on.stats.prefetch_issued, 0u);
  EXPECT_GT(on.stats.prefetch_hits, 0u);
  EXPECT_GT(elapsed_off, 0u);
  EXPECT_LT(elapsed_on, elapsed_off);
  // And both match the plain synchronous engine.
  const auto plain = RunSpatialJoin(r.tree(), s.tree(), jopt, false);
  EXPECT_EQ(off.pair_count, plain.pair_count);
  EXPECT_EQ(on.pair_count, plain.pair_count);
}

}  // namespace
}  // namespace rsj
