#include "rsjbench/bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "datagen/rng.h"

namespace rsj {
namespace rsjbench {

namespace {

bool ParseUint(const char* text, uint64_t* out) {
  if (*text == '\0' || *text == '-' || *text == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseSeconds(const char* text, double* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value) || value <= 0.0 ||
      value > 3600.0) {
    return false;
  }
  *out = value;
  return true;
}

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seed 1 keeps every generator's built-in seed, so MakeSeededWorkload(.., 1)
// is MakeWorkload; any other seed remaps each base seed independently.
uint64_t DeriveSeed(uint64_t base, uint64_t seed) {
  if (seed == 1) return base;
  return Mix64(base * 0x9e3779b97f4a7c15ULL + Mix64(seed));
}

size_t Scaled(size_t count, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(count * scale));
}

Dataset Streets(size_t count, uint64_t walk_seed, uint64_t seed) {
  StreetsConfig config;
  config.object_count = count;
  config.seed = DeriveSeed(walk_seed, seed);
  return GenerateStreets(config);
}

Dataset Rivers(size_t count, uint64_t seed) {
  RiversConfig config;
  config.object_count = count;
  config.seed = DeriveSeed(config.seed, seed);
  return GenerateRivers(config);
}

Dataset Regions(size_t count, uint64_t base_seed, uint64_t seed) {
  RegionsConfig config;
  config.object_count = count;
  config.seed = DeriveSeed(base_seed, seed);
  return GenerateRegions(config);
}

bool SameDataset(const Dataset& a, const Dataset& b) {
  if (a.name != b.name || a.objects.size() != b.objects.size() ||
      std::memcmp(&a.universe, &b.universe, sizeof(Rect)) != 0) {
    return false;
  }
  for (size_t i = 0; i < a.objects.size(); ++i) {
    const SpatialObject& x = a.objects[i];
    const SpatialObject& y = b.objects[i];
    if (x.id != y.id || x.chain.size() != y.chain.size() ||
        std::memcmp(&x.mbr, &y.mbr, sizeof(Rect)) != 0 ||
        std::memcmp(x.chain.data(), y.chain.data(),
                    x.chain.size() * sizeof(Point)) != 0) {
      return false;
    }
  }
  return true;
}

// The reference kernel's result, stored so the kernel cannot be optimized
// away.
volatile uint64_t g_reference_overlaps = 0;

// Internal spans that belong to another layer than their category says:
// the refinement pass is emitted under "spill" (it streams the spilled
// candidates), and an executor task or probe chunk is the join traversal
// of one subtree pair or frontier chunk.
const char* LayerOf(const TraceEvent& e) {
  if (std::strcmp(e.category, "spill") == 0 &&
      std::strcmp(e.name, "refine") == 0) {
    return "refine";
  }
  if (std::strcmp(e.category, "exec") == 0 &&
      (std::strcmp(e.name, "task") == 0 ||
       std::strcmp(e.name, "probe_chunk") == 0)) {
    return "join";
  }
  return e.category;
}

}  // namespace

bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      *error = std::string("expected --name=value, got '") + arg + "'";
      return false;
    }
    const std::string name(arg + 2, eq);
    const char* value = eq + 1;
    if (name == "workload" && *value != '\0') {
      flags->workload = value;
      have_workload = true;
    } else if (name == "seed" && ParseUint(value, &flags->seed)) {
      have_seed = true;
    } else if (name == "seconds" && ParseSeconds(value, &flags->seconds)) {
      have_seconds = true;
    } else if (name == "trace" && *value != '\0') {
      flags->trace_path = value;
    } else {
      *error = std::string("unknown flag or bad value: '") + arg + "'";
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    *error = "--workload, --seed and --seconds are required";
    return false;
  }
  return true;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = (p / 100.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = at - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double ReferenceKernelMs() {
  static const std::vector<Rect> kRects = [] {
    Rng rng(42);
    std::vector<Rect> rects(8000);
    for (Rect& r : rects) {
      const auto x = static_cast<Coord>(rng.Uniform());
      const auto y = static_cast<Coord>(rng.Uniform());
      r = Rect{x, y, x + static_cast<Coord>(rng.Uniform(0.0, 0.01)),
               y + static_cast<Coord>(rng.Uniform(0.0, 0.01))};
    }
    return rects;
  }();
  const auto start = std::chrono::steady_clock::now();
  std::vector<Rect> rects = kRects;
  std::sort(rects.begin(), rects.end(),
            [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  uint64_t overlaps = 0;
  for (size_t i = 0; i < rects.size(); ++i) {
    for (size_t j = i + 1; j < rects.size() && rects[j].xl <= rects[i].xu;
         ++j) {
      overlaps += rects[j].yl <= rects[i].yu && rects[i].yl <= rects[j].yu;
    }
  }
  g_reference_overlaps = overlaps;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void MultisetChecksum::Add(std::span<const uint32_t> tuple) {
  uint64_t h = 0x243f6a8885a308d3ULL ^ tuple.size();
  for (const uint32_t id : tuple) h = Mix64(h ^ (id + 0x9e3779b97f4a7c15ULL));
  sum_ += h;
  ++count_;
}

Workload MakeSeededWorkload(TestCase test, double scale, uint64_t seed) {
  // Mirrors MakeWorkload (datagen/workloads.cc) with derived seeds; the
  // bench checks seed 1 against MakeWorkload at startup.
  Workload w;
  w.label = TestCaseName(test);
  switch (test) {
    case TestCase::kA:
      w.paper_r_count = 131461;
      w.paper_s_count = 128971;
      w.paper_intersections = 86094;
      w.r = Streets(Scaled(w.paper_r_count, scale), 1, seed);
      w.s = Rivers(Scaled(w.paper_s_count, scale), seed);
      break;
    case TestCase::kB:
      w.paper_r_count = 131461;
      w.paper_s_count = 131192;
      w.paper_intersections = 154262;
      w.r = Streets(Scaled(w.paper_r_count, scale), 1, seed);
      w.s = Streets(Scaled(w.paper_s_count, scale), 7, seed);
      w.s.name = "streets(2nd map)";
      break;
    case TestCase::kC:
      w.paper_r_count = 598677;
      w.paper_s_count = 128971;
      w.paper_intersections = 395189;
      w.r = Streets(Scaled(w.paper_r_count, scale), 1, seed);
      w.r.name = "streets(full)";
      w.s = Rivers(Scaled(w.paper_s_count, scale), seed);
      break;
    case TestCase::kD:
      w.paper_r_count = 128971;
      w.paper_s_count = 128971;
      w.paper_intersections = 505583;
      w.r = Rivers(Scaled(w.paper_r_count, scale), seed);
      w.s = w.r;
      break;
    case TestCase::kE:
      w.paper_r_count = 67527;
      w.paper_s_count = 33696;
      w.paper_intersections = 543069;
      w.r = Regions(Scaled(w.paper_r_count, scale), 3, seed);
      w.s = Regions(Scaled(w.paper_s_count, scale), 11, seed);
      w.s.name = "regions(coarse)";
      break;
  }
  return w;
}

bool SameWorkload(const Workload& a, const Workload& b) {
  return a.label == b.label && a.paper_r_count == b.paper_r_count &&
         a.paper_s_count == b.paper_s_count &&
         a.paper_intersections == b.paper_intersections &&
         SameDataset(a.r, b.r) && SameDataset(a.s, b.s);
}

void RecordEmitter::Emit(const char* kind, const std::string& name,
                         double value, const char* unit, uint64_t n) const {
  std::printf(
      "JSON {\"workload\":\"%s\",\"seed\":%llu,\"kind\":\"%s\","
      "\"name\":\"%s\",\"value\":%.17g,\"unit\":\"%s\",\"n\":%llu}\n",
      workload_.c_str(), static_cast<unsigned long long>(seed_), kind,
      name.c_str(), value, unit, static_cast<unsigned long long>(n));
}

void RecordEmitter::Summary(uint64_t attempted, uint64_t failed,
                            bool correct) const {
  std::printf(
      "JSON {\"workload\":\"%s\",\"seed\":%llu,\"kind\":\"summary\","
      "\"attempted\":%llu,\"failed\":%llu,\"correct\":%s}\n",
      workload_.c_str(), static_cast<unsigned long long>(seed_),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), correct ? "true" : "false");
  std::fflush(stdout);
}

std::map<std::string, double> SelfMicrosByLayer(
    const std::vector<TraceEvent>& events, uint64_t from_micros,
    uint64_t to_micros) {
  std::map<uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) {
    if (e.phase == 'X' && e.ts_micros >= from_micros &&
        e.ts_micros < to_micros) {
      by_thread[e.tid].push_back(&e);
    }
  }
  std::map<std::string, double> self;
  for (auto& [tid, spans] : by_thread) {
    // Parents sort before their children: earlier start, then longer.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_micros != b->ts_micros) {
                  return a->ts_micros < b->ts_micros;
                }
                return a->dur_micros > b->dur_micros;
              });
    struct Open {
      const char* layer;
      uint64_t end;
    };
    std::vector<Open> stack;
    for (const TraceEvent* e : spans) {
      while (!stack.empty() && stack.back().end <= e->ts_micros) {
        stack.pop_back();
      }
      const uint64_t end = e->ts_micros + e->dur_micros;
      if (!stack.empty()) {
        // Only the part inside the parent is the parent's child time.
        const uint64_t covered = std::min(end, stack.back().end) - e->ts_micros;
        self[stack.back().layer] -= static_cast<double>(covered);
      }
      const char* layer = LayerOf(*e);
      self[layer] += static_cast<double>(e->dur_micros);
      stack.push_back(Open{layer, end});
    }
  }
  return self;
}

}  // namespace rsjbench
}  // namespace rsj
