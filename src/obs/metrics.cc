#include "obs/metrics.h"

#include <bit>

#include "engine/memory_governor.h"
#include "exec/task_pool.h"
#include "io/io_scheduler.h"

namespace rsj {
namespace {

// Shorthand for the descriptor table: plain uint64 fields and
// ComparisonCounter fields get uniform accessors via member pointers.
template <uint64_t Statistics::* Field>
constexpr StatisticsCounterDesc Plain(const char* name, MetricMergeKind merge) {
  return StatisticsCounterDesc{
      name, merge, [](const Statistics& s) { return s.*Field; },
      [](Statistics& s, uint64_t v) { s.*Field = v; }};
}

template <ComparisonCounter Statistics::* Field>
constexpr StatisticsCounterDesc Comparisons(const char* name) {
  return StatisticsCounterDesc{
      name, MetricMergeKind::kSum,
      [](const Statistics& s) { return (s.*Field).count(); },
      [](Statistics& s, uint64_t v) {
        (s.*Field).Reset();
        (s.*Field).Add(v);
      }};
}

}  // namespace

const std::vector<StatisticsCounterDesc>& StatisticsCounters() {
  // Order follows the struct (and docs/METRICS.md). A counter added to
  // Statistics without a row here fails metrics_test's completeness
  // check; a counter added without a docs/METRICS.md row fails the
  // check_metrics_docs.py lint.
  static const std::vector<StatisticsCounterDesc> kCounters = {
      Plain<&Statistics::disk_reads>("disk_reads", MetricMergeKind::kSum),
      Plain<&Statistics::disk_writes>("disk_writes", MetricMergeKind::kSum),
      Plain<&Statistics::buffer_hits>("buffer_hits", MetricMergeKind::kSum),
      Plain<&Statistics::buffer_evictions>("buffer_evictions",
                                           MetricMergeKind::kSum),
      Plain<&Statistics::pin_count>("pin_count", MetricMergeKind::kSum),
      Plain<&Statistics::node_decodes>("node_decodes", MetricMergeKind::kSum),
      Plain<&Statistics::node_cache_hits>("node_cache_hits",
                                          MetricMergeKind::kSum),
      Plain<&Statistics::prefetch_issued>("prefetch_issued",
                                          MetricMergeKind::kSum),
      Plain<&Statistics::prefetch_hits>("prefetch_hits",
                                        MetricMergeKind::kSum),
      Plain<&Statistics::prefetch_wasted>("prefetch_wasted",
                                          MetricMergeKind::kSum),
      Plain<&Statistics::modeled_io_micros>("modeled_io_micros",
                                            MetricMergeKind::kSum),
      Comparisons<&Statistics::join_comparisons>("join_comparisons"),
      Comparisons<&Statistics::sort_comparisons>("sort_comparisons"),
      Comparisons<&Statistics::schedule_comparisons>("schedule_comparisons"),
      Plain<&Statistics::output_pairs>("output_pairs", MetricMergeKind::kSum),
      Plain<&Statistics::node_pairs>("node_pairs", MetricMergeKind::kSum),
      Plain<&Statistics::window_queries>("window_queries",
                                         MetricMergeKind::kSum),
      Plain<&Statistics::ri_signatures_built>("ri_signatures_built",
                                              MetricMergeKind::kSum),
      Plain<&Statistics::ri_signature_bytes>("ri_signature_bytes",
                                             MetricMergeKind::kSum),
      Plain<&Statistics::ri_true_hits>("ri_true_hits", MetricMergeKind::kSum),
      Plain<&Statistics::ri_rejects>("ri_rejects", MetricMergeKind::kSum),
      Plain<&Statistics::ri_inconclusive>("ri_inconclusive",
                                          MetricMergeKind::kSum),
      Plain<&Statistics::ri_exact_tests_avoided>("ri_exact_tests_avoided",
                                                 MetricMergeKind::kSum),
      Plain<&Statistics::frontier_peak_tuples>("frontier_peak_tuples",
                                               MetricMergeKind::kMax),
      Plain<&Statistics::result_chunks_spilled>("result_chunks_spilled",
                                                MetricMergeKind::kSum),
      Plain<&Statistics::result_spill_bytes>("result_spill_bytes",
                                             MetricMergeKind::kSum),
      Plain<&Statistics::result_peak_chunks_resident>(
          "result_peak_chunks_resident", MetricMergeKind::kMax),
      Plain<&Statistics::sh_shards_built>("sh_shards_built",
                                          MetricMergeKind::kSum),
      Plain<&Statistics::sh_objects_replicated>("sh_objects_replicated",
                                                MetricMergeKind::kSum),
      Plain<&Statistics::sh_raw_pairs>("sh_raw_pairs", MetricMergeKind::kSum),
      Plain<&Statistics::sh_dedup_suppressed>("sh_dedup_suppressed",
                                              MetricMergeKind::kSum),
  };
  return kCounters;
}

void LatencyHistogram::Observe(uint64_t value) {
  buckets_[std::bit_width(value)] += 1;
  count_ += 1;
  sum_ += value;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t LatencyHistogram::ApproxQuantile(double quantile) const {
  if (count_ == 0) return 0;
  uint64_t target =
      static_cast<uint64_t>(quantile * static_cast<double>(count_)) + 1;
  if (target > count_) target = count_;  // quantile 1.0 = the last sample
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return i == 0 ? 0 : (uint64_t{1} << i) - 1;
    }
  }
  return (uint64_t{1} << (kBuckets - 1));
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t value,
                                 MetricMergeKind merge) {
  auto [it, inserted] = counters_.try_emplace(name);
  CounterCell& cell = it->second;
  if (inserted) cell.merge = merge;
  if (cell.merge == MetricMergeKind::kSum) {
    cell.value += value;
  } else if (value > cell.value) {
    cell.value = value;
  }
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::ObserveHistogram(const std::string& name,
                                       uint64_t value) {
  histograms_[name].Observe(value);
}

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const LatencyHistogram& h) {
  histograms_[name].MergeFrom(h);
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, cell] : other.counters_) {
    AddCounter(name, cell.value, cell.merge);
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].MergeFrom(histogram);
  }
}

bool MetricsRegistry::HasCounter(const std::string& name) const {
  return counters_.find(name) != counters_.end();
}

uint64_t MetricsRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const LatencyHistogram* MetricsRegistry::Histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  for (const auto& [name, cell] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(cell.value) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      if (histogram.bucket(i) == 0) continue;
      cumulative += histogram.bucket(i);
      const uint64_t le = i == 0 ? 0 : (uint64_t{1} << i) - 1;
      out += name + "_bucket{le=\"" + std::to_string(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(histogram.count()) +
           "\n";
    out += name + "_sum " + std::to_string(histogram.sum()) + "\n";
    out += name + "_count " + std::to_string(histogram.count()) + "\n";
  }
  return out;
}

void SnapshotStatistics(const Statistics& stats, MetricsRegistry* out) {
  for (const StatisticsCounterDesc& desc : StatisticsCounters()) {
    out->AddCounter(std::string("rsj_") + desc.name, desc.get(stats),
                    desc.merge);
  }
}

void SnapshotGovernor(const MemoryGovernor& governor, MetricsRegistry* out) {
  out->SetGauge("rsj_governor_budget_bytes",
                static_cast<double>(governor.budget_bytes()));
  out->SetGauge("rsj_governor_live_bytes",
                static_cast<double>(governor.leased_bytes()));
  out->AddCounter("rsj_governor_peak_bytes", governor.peak_bytes(),
                  MetricMergeKind::kMax);
  out->AddCounter("rsj_governor_overshoots", governor.overshoots());
  out->AddCounter("rsj_governor_overshoot_peak_bytes",
                  governor.overshoot_peak_bytes(), MetricMergeKind::kMax);
  for (unsigned c = 0; c < kMemoryCategoryCount; ++c) {
    const auto category = static_cast<MemoryCategory>(c);
    const std::string base =
        std::string("rsj_governor_") + MemoryCategoryName(category);
    out->SetGauge(base + "_live_bytes",
                  static_cast<double>(governor.category_live(category)));
    out->AddCounter(base + "_peak_bytes", governor.category_peak(category),
                    MetricMergeKind::kMax);
  }
}

void SnapshotTaskPool(const TaskPool& pool, MetricsRegistry* out) {
  out->AddCounter("rsj_task_pool_tasks_executed", pool.tasks_executed());
  out->AddCounter("rsj_task_pool_assists", pool.pool_assists());
  out->AddCounter("rsj_task_pool_runs_completed", pool.runs_completed());
  out->AddCounter("rsj_task_pool_peak_concurrent_runs",
                  pool.peak_concurrent_runs(), MetricMergeKind::kMax);
}

void SnapshotIo(const IoScheduler& io, MetricsRegistry* out) {
  out->AddCounter("rsj_io_async_reads", io.async_reads());
  out->AddCounter("rsj_io_timed_writes", io.disk_writes());
  const SimulatedDiskArray& disks = io.disks();
  const uint64_t now = io.NowMicros();
  const unsigned count = disks.disk_count();
  uint64_t busy_total = 0;
  for (unsigned d = 0; d < count; ++d) {
    const uint64_t busy = disks.busy_micros(d);
    busy_total += busy;
    out->SetGauge("rsj_io_disk" + std::to_string(d) + "_busy_micros",
                  static_cast<double>(busy));
  }
  out->AddCounter("rsj_io_disk_busy_micros_total", busy_total);
  out->AddCounter("rsj_io_backfills", disks.backfills());
  // Fraction of the merged modeled timeline the arms spent servicing
  // requests (1.0 = every disk busy the whole run; idle gaps and
  // post-floor slack lower it).
  const double denom = static_cast<double>(now) * count;
  out->SetGauge("rsj_io_disk_utilization",
                denom > 0 ? static_cast<double>(busy_total) / denom : 0.0);
}

}  // namespace rsj
