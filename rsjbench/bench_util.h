// Helpers of the seeded rsj benchmark (bench_rsj.cc): strict flag parsing,
// order statistics, peak RSS, order-independent result checksums, seeded
// workload generation, the one metric-record schema, and the fold of trace
// spans into per-layer self time.

#ifndef RSJBENCH_BENCH_UTIL_H_
#define RSJBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rsj.h"

namespace rsj {
namespace rsjbench {

// --- command line ---------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  // empty: the untraced end-to-end run
};

// Parses --workload=<name> --seed=<n> --seconds=<s> [--trace=<file>].
// Unknown flags, missing required flags and malformed or out-of-range
// values are errors (returned as a message, never silently defaulted).
bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error);

// --- order statistics -----------------------------------------------------

// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// Peak resident set size of this process so far, in MiB.
double PeakRssMib();

// Times one run of the benchmark's reference kernel, in ms: a fixed CPU
// task that uses no library code (sort 8,000 seeded rectangles by xl and
// count their overlapping pairs with a plane sweep). Timed while the
// workload is idle, it measures how fast the host runs at that moment.
double ReferenceKernelMs();

// --- result checksums -----------------------------------------------------

// Order-independent checksum of a multiset of id tuples: the wrapping sum
// of a 64-bit mix of each tuple, plus the tuple count. Two executors that
// produce the same multiset in any order agree; a dropped, duplicated or
// altered tuple changes the sum with overwhelming probability.
class MultisetChecksum {
 public:
  void Add(std::span<const uint32_t> tuple);
  void AddPair(uint32_t r, uint32_t s) {
    const uint32_t pair[2] = {r, s};
    Add(pair);
  }
  void AddPairs(std::span<const ResultPair> pairs) {
    for (const ResultPair& p : pairs) AddPair(p.r, p.s);
  }

  uint64_t count() const { return count_; }

  friend bool operator==(const MultisetChecksum&,
                         const MultisetChecksum&) = default;

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// --- seeded workloads -----------------------------------------------------

// MakeWorkload(test, scale) with the object seeds (street walks, river and
// railway courses, regions) derived from `seed`. The city layout stays
// the paper workloads' one, so every seed draws new objects over the same
// geography and the join selectivities stay close from seed to seed. Seed
// 1 reproduces MakeWorkload exactly.
Workload MakeSeededWorkload(TestCase test, double scale, uint64_t seed);

// True when both workloads hold identical objects (ids, MBRs and vertex
// chains compared bit for bit), names and universes.
bool SameWorkload(const Workload& a, const Workload& b);

// --- metric records -------------------------------------------------------

// Prints one line per metric in the benchmark's single record schema:
//   JSON {"workload":..,"seed":..,"kind":"e2e"|"layer","name":..,
//         "value":..,"unit":..,"n":..}
// `n` is the number of samples the value was computed from.
class RecordEmitter {
 public:
  RecordEmitter(std::string workload, uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  void Emit(const char* kind, const std::string& name, double value,
            const char* unit, uint64_t n) const;

  // The run's closing line: {"kind":"summary","attempted":..,"failed":..,
  // "correct":..}.
  void Summary(uint64_t attempted, uint64_t failed, bool correct) const;

 private:
  std::string workload_;
  uint64_t seed_;
};

// --- per-layer self time --------------------------------------------------

// Folds the complete ('X') spans of `events` that start inside
// [from_micros, to_micros) into self time per layer: a span's duration
// minus the parts covered by spans nested in it on the same thread. The
// layer of a span is its category, except for the library's internal
// spans that sit in another layer's category (see LayerOf in the .cc).
std::map<std::string, double> SelfMicrosByLayer(
    const std::vector<TraceEvent>& events, uint64_t from_micros,
    uint64_t to_micros);

}  // namespace rsjbench
}  // namespace rsj

#endif  // RSJBENCH_BENCH_UTIL_H_
