#include "engine/memory_governor.h"

namespace rsj {

const char* MemoryCategoryName(MemoryCategory category) {
  switch (category) {
    case MemoryCategory::kResultChunks:
      return "result_chunks";
    case MemoryCategory::kFrontierTuples:
      return "frontier_tuples";
    case MemoryCategory::kSessionReservations:
      return "session_reservations";
    case MemoryCategory::kRasterSignatures:
      return "raster_signatures";
    case MemoryCategory::kShardBuild:
      return "shard_build";
  }
  return "unknown";
}

namespace {

// Counter-track names must be string literals (TraceEvent keeps the
// pointer), so the per-category names are a parallel static table.
const char* GovernorCounterName(MemoryCategory category) {
  switch (category) {
    case MemoryCategory::kResultChunks:
      return "governor/result_chunks";
    case MemoryCategory::kFrontierTuples:
      return "governor/frontier_tuples";
    case MemoryCategory::kSessionReservations:
      return "governor/session_reservations";
    case MemoryCategory::kRasterSignatures:
      return "governor/raster_signatures";
    case MemoryCategory::kShardBuild:
      return "governor/shard_build";
  }
  return "governor/unknown";
}

}  // namespace

bool MemoryGovernor::TryLease(MemoryCategory category, uint64_t bytes) {
  if (bytes == 0) return true;
  const uint64_t now =
      total_live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (budget_ != 0 && now > budget_) {
    total_live_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  Account(category, bytes, now);
  EmitCounters(category);
  return true;
}

void MemoryGovernor::Charge(MemoryCategory category, uint64_t bytes) {
  if (bytes == 0) return;
  const uint64_t now =
      total_live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (budget_ != 0 && now > budget_) {
    overshoots_.fetch_add(1, std::memory_order_relaxed);
    Raise(&overshoot_peak_, now - budget_);
  }
  Account(category, bytes, now);
  EmitCounters(category);
}

void MemoryGovernor::Release(MemoryCategory category, uint64_t bytes) {
  if (bytes == 0) return;
  total_live_.fetch_sub(bytes, std::memory_order_relaxed);
  gauges_[static_cast<unsigned>(category)].live.fetch_sub(
      bytes, std::memory_order_relaxed);
  EmitCounters(category);
}

void MemoryGovernor::Account(MemoryCategory category, uint64_t bytes,
                             uint64_t total_now) {
  Raise(&total_peak_, total_now);
  Gauge& gauge = gauges_[static_cast<unsigned>(category)];
  const uint64_t cat_now =
      gauge.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  Raise(&gauge.peak, cat_now);
}

void MemoryGovernor::EmitCounters(MemoryCategory category) {
  TraceRecorder* const tracer = tracer_.load(std::memory_order_acquire);
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer->Counter(GovernorCounterName(category), 0, category_live(category));
  tracer->Counter("governor/total", 0, leased_bytes());
}

}  // namespace rsj
