// Tests for the metrics registry (src/obs/metrics.h): the canonical
// Statistics counter table's completeness, the programmatic proof that
// MetricsRegistry::MergeFrom and Statistics::MergeFrom agree counter by
// counter (sum vs max, over the WHOLE table — a counter added with the
// wrong merge kind fails here, not in review), the log2-bucket latency
// histogram, the Prometheus text exposition, and the run-wide snapshot
// helpers (governor ledger, task pool, disk utilization).

#include "obs/metrics.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "engine/memory_governor.h"
#include "exec/task_pool.h"
#include "io/io_scheduler.h"

namespace rsj {
namespace {

// ---------------------------------------------------------------------------
// The canonical counter table

TEST(StatisticsCounters, TableIsCompleteAndUnique) {
  const auto& counters = StatisticsCounters();
  // Every Statistics counter exactly once: 26 plain volumes, 3 comparison
  // counters, 2 high-water marks. A counter added to Statistics without a
  // table row changes this count — update the table, docs/METRICS.md and
  // this expectation together.
  EXPECT_EQ(counters.size(), 31u);
  std::set<std::string> names;
  size_t max_merged = 0;
  for (const StatisticsCounterDesc& desc : counters) {
    EXPECT_TRUE(names.insert(desc.name).second)
        << "duplicate counter " << desc.name;
    if (desc.merge == MetricMergeKind::kMax) ++max_merged;
  }
  // Exactly the two documented high-water marks merge by max.
  EXPECT_EQ(max_merged, 2u);
  EXPECT_TRUE(names.count("frontier_peak_tuples"));
  EXPECT_TRUE(names.count("result_peak_chunks_resident"));
}

TEST(StatisticsCounters, GettersAndSettersRoundTrip) {
  for (const StatisticsCounterDesc& desc : StatisticsCounters()) {
    Statistics stats;
    EXPECT_EQ(desc.get(stats), 0u) << desc.name;
    desc.set(stats, 1234);
    EXPECT_EQ(desc.get(stats), 1234u) << desc.name;
  }
}

// The core parity check: for EVERY counter in the table, merging two
// Statistics instances and merging two registries built from them land on
// the same value. This is what makes the Merge column of docs/METRICS.md
// executable.
TEST(StatisticsCounters, RegistryMergeMatchesStatisticsMergeFrom) {
  for (const StatisticsCounterDesc& desc : StatisticsCounters()) {
    const uint64_t x = 700, y = 300;
    Statistics a, b;
    desc.set(a, x);
    desc.set(b, y);
    Statistics merged = a;
    merged.MergeFrom(b);

    MetricsRegistry ra, rb;
    SnapshotStatistics(a, &ra);
    SnapshotStatistics(b, &rb);
    ra.MergeFrom(rb);

    const std::string name = std::string("rsj_") + desc.name;
    ASSERT_TRUE(ra.HasCounter(name)) << name;
    EXPECT_EQ(ra.CounterValue(name), desc.get(merged))
        << name << ": registry merge diverges from Statistics::MergeFrom";
    const uint64_t expected =
        desc.merge == MetricMergeKind::kSum ? x + y : std::max(x, y);
    EXPECT_EQ(desc.get(merged), expected) << name;
  }
}

TEST(StatisticsCounters, SnapshotCoversTheWholeTable) {
  Statistics stats;
  stats.disk_reads = 5;
  MetricsRegistry registry;
  SnapshotStatistics(stats, &registry);
  EXPECT_EQ(registry.counter_count(), StatisticsCounters().size());
  EXPECT_EQ(registry.CounterValue("rsj_disk_reads"), 5u);
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, BucketsByBitWidth) {
  LatencyHistogram h;
  h.Observe(0);    // bucket 0
  h.Observe(1);    // bucket 1
  h.Observe(2);    // bucket 2 (2..3)
  h.Observe(3);    // bucket 2
  h.Observe(100);  // bucket 7 (64..127)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(7), 1u);

  LatencyHistogram other;
  other.Observe(3);
  h.MergeFrom(other);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(2), 3u);

  // Quantiles report bucket upper bounds.
  EXPECT_EQ(h.ApproxQuantile(0.0), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 3u);
  EXPECT_EQ(h.ApproxQuantile(1.0), 127u);
  EXPECT_EQ(LatencyHistogram().ApproxQuantile(0.5), 0u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersRespectTheirMergeKind) {
  MetricsRegistry r;
  r.AddCounter("volume", 10);
  r.AddCounter("volume", 5);
  EXPECT_EQ(r.CounterValue("volume"), 15u);
  r.AddCounter("peak", 10, MetricMergeKind::kMax);
  r.AddCounter("peak", 5, MetricMergeKind::kMax);
  r.AddCounter("peak", 12, MetricMergeKind::kMax);
  EXPECT_EQ(r.CounterValue("peak"), 12u);
  EXPECT_FALSE(r.HasCounter("absent"));
  EXPECT_EQ(r.CounterValue("absent"), 0u);
}

TEST(MetricsRegistry, MergeFromCombinesEveryKind) {
  MetricsRegistry a, b;
  a.AddCounter("sum", 1);
  b.AddCounter("sum", 2);
  a.AddCounter("max", 9, MetricMergeKind::kMax);
  b.AddCounter("max", 4, MetricMergeKind::kMax);
  a.SetGauge("gauge", 1.5);
  b.SetGauge("gauge", 2.5);  // last write (the merged-in one) wins
  a.ObserveHistogram("hist", 10);
  b.ObserveHistogram("hist", 20);
  b.AddCounter("only_b", 7);
  a.MergeFrom(b);
  EXPECT_EQ(a.CounterValue("sum"), 3u);
  EXPECT_EQ(a.CounterValue("max"), 9u);
  EXPECT_EQ(a.CounterValue("only_b"), 7u);
  EXPECT_DOUBLE_EQ(a.GaugeValue("gauge"), 2.5);
  ASSERT_NE(a.Histogram("hist"), nullptr);
  EXPECT_EQ(a.Histogram("hist")->count(), 2u);
  EXPECT_EQ(a.Histogram("hist")->sum(), 30u);
  EXPECT_EQ(a.Histogram("absent"), nullptr);
}

TEST(MetricsRegistry, PrometheusTextExposition) {
  MetricsRegistry r;
  r.AddCounter("rsj_reads", 3);
  r.SetGauge("rsj_utilization", 0.5);
  r.ObserveHistogram("rsj_latency", 5);
  r.ObserveHistogram("rsj_latency", 100);
  const std::string text = r.PrometheusText();
  EXPECT_NE(text.find("# TYPE rsj_reads counter\nrsj_reads 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rsj_utilization gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rsj_latency histogram\n"), std::string::npos);
  // 5 has bit_width 3 -> bucket upper bound 7; cumulative counts.
  EXPECT_NE(text.find("rsj_latency_bucket{le=\"7\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rsj_latency_bucket{le=\"127\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rsj_latency_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rsj_latency_sum 105\n"), std::string::npos);
  EXPECT_NE(text.find("rsj_latency_count 2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run-wide snapshot helpers

TEST(Snapshots, GovernorLedgerLandsAsGaugesAndPeaks) {
  MemoryGovernor governor(MemoryGovernor::Options{1 << 20});
  ASSERT_TRUE(governor.TryLease(MemoryCategory::kResultChunks, 4096));
  ASSERT_TRUE(governor.TryLease(MemoryCategory::kSessionReservations, 1024));
  governor.Release(MemoryCategory::kResultChunks, 4096);
  MetricsRegistry r;
  SnapshotGovernor(governor, &r);
  EXPECT_DOUBLE_EQ(r.GaugeValue("rsj_governor_budget_bytes"),
                   static_cast<double>(1 << 20));
  EXPECT_DOUBLE_EQ(r.GaugeValue("rsj_governor_live_bytes"), 1024.0);
  EXPECT_EQ(r.CounterValue("rsj_governor_peak_bytes"), 5120u);
  EXPECT_DOUBLE_EQ(r.GaugeValue("rsj_governor_result_chunks_live_bytes"),
                   0.0);
  EXPECT_EQ(r.CounterValue("rsj_governor_result_chunks_peak_bytes"), 4096u);
  EXPECT_EQ(
      r.CounterValue("rsj_governor_session_reservations_peak_bytes"),
      1024u);
  // Leases never overshoot; only an unconditional Charge can.
  EXPECT_TRUE(r.HasCounter("rsj_governor_overshoots"));
  EXPECT_EQ(r.CounterValue("rsj_governor_overshoots"), 0u);
  EXPECT_TRUE(r.HasCounter("rsj_governor_overshoot_peak_bytes"));
  EXPECT_EQ(r.CounterValue("rsj_governor_overshoot_peak_bytes"), 0u);
}

TEST(Snapshots, TaskPoolCountersLand) {
  TaskPool pool(TaskPool::Options{2});
  pool.Run(2, 8, [](unsigned, size_t) {});
  MetricsRegistry r;
  SnapshotTaskPool(pool, &r);
  EXPECT_EQ(r.CounterValue("rsj_task_pool_tasks_executed"), 8u);
  EXPECT_EQ(r.CounterValue("rsj_task_pool_runs_completed"), 1u);
  EXPECT_EQ(r.CounterValue("rsj_task_pool_peak_concurrent_runs"), 1u);
}

TEST(Snapshots, IoUtilizationGaugesLand) {
  IoScheduler::Options options;
  options.disks.disk_count = 2;
  IoScheduler io(options);
  MetricsRegistry r;
  SnapshotIo(io, &r);
  EXPECT_TRUE(r.HasCounter("rsj_io_disk_busy_micros_total"));
  // An idle scheduler reports zero utilization, not NaN.
  EXPECT_DOUBLE_EQ(r.GaugeValue("rsj_io_disk_utilization"), 0.0);
}

}  // namespace
}  // namespace rsj
