// Metrics registry: a scrapeable, mergeable snapshot layer over the
// system's counters.
//
// `Statistics` (storage/statistics.h) is the per-actor hot-path counter
// block; docs/METRICS.md specifies how instances combine (volumes SUM,
// high-water marks take MAX). This module makes those semantics
// first-class data:
//
//   * `StatisticsCounters()` — the canonical descriptor table of every
//     `Statistics` counter: name, merge kind, getter, setter. The
//     metrics test iterates it to prove `MetricsRegistry::MergeFrom`
//     and `Statistics::MergeFrom` agree counter by counter, and the
//     docs lint (tools/check_metrics_docs.py) keeps it in lockstep
//     with docs/METRICS.md.
//   * `MetricsRegistry` — named counters (with an explicit merge kind),
//     gauges, and log2-bucket latency histograms; `MergeFrom` combines
//     registries honoring each counter's kind; `PrometheusText()`
//     renders the classic text exposition format.
//   * Snapshot helpers pull the run-wide sources into a registry:
//     `Statistics`, the `MemoryGovernor` ledger, the disk model's
//     busy/idle utilization, and the `TaskPool`'s fairness counters.
//
// The registry is a snapshot container, not a hot-path sink: build one
// when you want to look (end of a batch, a scrape), don't thread it
// through executors.

#ifndef RSJ_OBS_METRICS_H_
#define RSJ_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/statistics.h"

namespace rsj {

class IoScheduler;
class MemoryGovernor;
class TaskPool;

// How two samples of the same counter combine — mirrors the Merge column
// of docs/METRICS.md: volumes add, high-water marks take the maximum.
enum class MetricMergeKind {
  kSum,
  kMax,
};

// One `Statistics` counter: its docs/METRICS.md name, merge kind, and
// accessors (the setter exists so tests can drive MergeFrom parity
// checks programmatically over the whole table).
struct StatisticsCounterDesc {
  const char* name;
  MetricMergeKind merge;
  uint64_t (*get)(const Statistics&);
  void (*set)(Statistics&, uint64_t);
};

// The canonical table: every counter `Statistics` carries, exactly once.
const std::vector<StatisticsCounterDesc>& StatisticsCounters();

// Fixed log2-bucket histogram for latencies: bucket i counts samples
// with bit_width(value) == i (bucket 0 = value 0, bucket 1 = 1, bucket
// 2 = 2..3, ...). Cheap, merge is bucket-wise addition, and the upper
// bound of a bucket is (1 << i) - 1.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Observe(uint64_t value);
  void MergeFrom(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t bucket(size_t i) const { return buckets_[i]; }

  // Smallest bucket upper bound covering `quantile` (0..1] of samples;
  // 0 when empty.
  uint64_t ApproxQuantile(double quantile) const;

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// Named counters/gauges/histograms with explicit merge semantics.
// Not thread-safe: registries are built and merged on one thread.
class MetricsRegistry {
 public:
  // Adds `value` into the named counter under `merge` semantics (sum
  // accumulates, max keeps the high-water mark). The kind is fixed by
  // the first Add for a name.
  void AddCounter(const std::string& name, uint64_t value,
                  MetricMergeKind merge = MetricMergeKind::kSum);

  // Point-in-time value; last write wins.
  void SetGauge(const std::string& name, double value);

  void ObserveHistogram(const std::string& name, uint64_t value);
  void MergeHistogram(const std::string& name, const LatencyHistogram& h);

  // Combines `other` into this registry: counters by their merge kind,
  // gauges last-write-wins (other overwrites), histograms bucket-wise.
  void MergeFrom(const MetricsRegistry& other);

  bool HasCounter(const std::string& name) const;
  uint64_t CounterValue(const std::string& name) const;  // 0 when absent
  double GaugeValue(const std::string& name) const;      // 0 when absent
  const LatencyHistogram* Histogram(const std::string& name) const;

  size_t counter_count() const { return counters_.size(); }

  // Prometheus-style text exposition: one `# TYPE` line per metric,
  // counters/gauges as plain samples, histograms as cumulative
  // `_bucket{le=...}` + `_sum` + `_count` series.
  std::string PrometheusText() const;

 private:
  struct CounterCell {
    uint64_t value = 0;
    MetricMergeKind merge = MetricMergeKind::kSum;
  };

  std::map<std::string, CounterCell> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

// Snapshot helpers. Prefixes keep the exposition namespaced: every
// Statistics counter lands as `rsj_<name>`, governor/pool/io metrics as
// `rsj_governor_*` / `rsj_task_pool_*` / `rsj_io_*`.
void SnapshotStatistics(const Statistics& stats, MetricsRegistry* out);
void SnapshotGovernor(const MemoryGovernor& governor, MetricsRegistry* out);
void SnapshotTaskPool(const TaskPool& pool, MetricsRegistry* out);
void SnapshotIo(const IoScheduler& io, MetricsRegistry* out);

}  // namespace rsj

#endif  // RSJ_OBS_METRICS_H_
