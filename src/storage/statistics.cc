#include "storage/statistics.h"

#include <algorithm>
#include <cstdio>

namespace rsj {

void Statistics::MergeFrom(const Statistics& other) {
  disk_reads += other.disk_reads;
  disk_writes += other.disk_writes;
  buffer_hits += other.buffer_hits;
  buffer_evictions += other.buffer_evictions;
  pin_count += other.pin_count;
  node_decodes += other.node_decodes;
  node_cache_hits += other.node_cache_hits;
  prefetch_issued += other.prefetch_issued;
  prefetch_hits += other.prefetch_hits;
  prefetch_wasted += other.prefetch_wasted;
  modeled_io_micros += other.modeled_io_micros;
  join_comparisons.Add(other.join_comparisons.count());
  sort_comparisons.Add(other.sort_comparisons.count());
  schedule_comparisons.Add(other.schedule_comparisons.count());
  output_pairs += other.output_pairs;
  node_pairs += other.node_pairs;
  window_queries += other.window_queries;
  ri_signatures_built += other.ri_signatures_built;
  ri_signature_bytes += other.ri_signature_bytes;
  ri_true_hits += other.ri_true_hits;
  ri_rejects += other.ri_rejects;
  ri_inconclusive += other.ri_inconclusive;
  ri_exact_tests_avoided += other.ri_exact_tests_avoided;
  result_chunks_spilled += other.result_chunks_spilled;
  result_spill_bytes += other.result_spill_bytes;
  sh_shards_built += other.sh_shards_built;
  sh_objects_replicated += other.sh_objects_replicated;
  sh_raw_pairs += other.sh_raw_pairs;
  sh_dedup_suppressed += other.sh_dedup_suppressed;
  // High-water marks: concurrent actors share one peak, so merging takes
  // the maximum instead of summing.
  frontier_peak_tuples = std::max(frontier_peak_tuples,
                                  other.frontier_peak_tuples);
  result_peak_chunks_resident = std::max(result_peak_chunks_resident,
                                         other.result_peak_chunks_resident);
}

std::string Statistics::ToString() const {
  char buf[3072];
  std::snprintf(
      buf, sizeof(buf),
      "disk reads:        %llu\n"
      "buffer hits:       %llu (hit rate %.1f%%)\n"
      "evictions:         %llu\n"
      "pins:              %llu\n"
      "node decodes:      %llu\n"
      "node cache hits:   %llu\n"
      "prefetch issued:   %llu\n"
      "prefetch hits:     %llu\n"
      "prefetch wasted:   %llu\n"
      "modeled io stall:  %llu us\n"
      "join comparisons:  %llu\n"
      "sort comparisons:  %llu\n"
      "sched comparisons: %llu\n"
      "node pairs:        %llu\n"
      "window queries:    %llu\n"
      "output pairs:      %llu\n"
      "frontier peak:     %llu tuples\n"
      "chunks spilled:    %llu\n"
      "spill bytes:       %llu\n"
      "resident peak:     %llu chunks\n"
      "ri signatures:     %llu (%llu bytes)\n"
      "ri true hits:      %llu\n"
      "ri rejects:        %llu\n"
      "ri inconclusive:   %llu\n"
      "ri tests avoided:  %llu\n"
      "shards built:      %llu\n"
      "objs replicated:   %llu\n"
      "shard raw pairs:   %llu\n"
      "dedup suppressed:  %llu\n",
      static_cast<unsigned long long>(disk_reads),
      static_cast<unsigned long long>(buffer_hits), HitRate() * 100.0,
      static_cast<unsigned long long>(buffer_evictions),
      static_cast<unsigned long long>(pin_count),
      static_cast<unsigned long long>(node_decodes),
      static_cast<unsigned long long>(node_cache_hits),
      static_cast<unsigned long long>(prefetch_issued),
      static_cast<unsigned long long>(prefetch_hits),
      static_cast<unsigned long long>(prefetch_wasted),
      static_cast<unsigned long long>(modeled_io_micros),
      static_cast<unsigned long long>(join_comparisons.count()),
      static_cast<unsigned long long>(sort_comparisons.count()),
      static_cast<unsigned long long>(schedule_comparisons.count()),
      static_cast<unsigned long long>(node_pairs),
      static_cast<unsigned long long>(window_queries),
      static_cast<unsigned long long>(output_pairs),
      static_cast<unsigned long long>(frontier_peak_tuples),
      static_cast<unsigned long long>(result_chunks_spilled),
      static_cast<unsigned long long>(result_spill_bytes),
      static_cast<unsigned long long>(result_peak_chunks_resident),
      static_cast<unsigned long long>(ri_signatures_built),
      static_cast<unsigned long long>(ri_signature_bytes),
      static_cast<unsigned long long>(ri_true_hits),
      static_cast<unsigned long long>(ri_rejects),
      static_cast<unsigned long long>(ri_inconclusive),
      static_cast<unsigned long long>(ri_exact_tests_avoided),
      static_cast<unsigned long long>(sh_shards_built),
      static_cast<unsigned long long>(sh_objects_replicated),
      static_cast<unsigned long long>(sh_raw_pairs),
      static_cast<unsigned long long>(sh_dedup_suppressed));
  return std::string(buf);
}

}  // namespace rsj
