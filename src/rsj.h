// Umbrella header: the public API of the R-tree spatial join library.
//
// Quick tour (see examples/quickstart.cpp for a runnable version):
//
//   #include "rsj.h"
//
//   rsj::PagedFile file_r(rsj::kPageSize2K), file_s(rsj::kPageSize2K);
//   rsj::RTreeOptions topt{.page_size = rsj::kPageSize2K};
//   rsj::RTree r = rsj::BuildRTree(&file_r, rects_r, topt);
//   rsj::RTree s = rsj::BuildRTree(&file_s, rects_s, topt);
//
//   rsj::JoinOptions jopt;
//   jopt.algorithm = rsj::JoinAlgorithm::kSJ4;
//   jopt.buffer_bytes = 128 * 1024;
//   rsj::JoinRunResult result = rsj::RunSpatialJoin(r, s, jopt);
//
//   // result.pair_count, result.stats.disk_reads, ...

#ifndef RSJ_RSJ_H_
#define RSJ_RSJ_H_

#include "datagen/dataset.h"       // IWYU pragma: export
#include "datagen/tiger_like.h"    // IWYU pragma: export
#include "datagen/workloads.h"     // IWYU pragma: export
#include "engine/memory_governor.h"  // IWYU pragma: export
#include "engine/planner.h"        // IWYU pragma: export
#include "engine/query_engine.h"   // IWYU pragma: export
#include "exec/exec_context.h"     // IWYU pragma: export
#include "exec/multiway_executor.h"  // IWYU pragma: export
#include "exec/parallel_executor.h"  // IWYU pragma: export
#include "exec/partition.h"        // IWYU pragma: export
#include "exec/result_sink.h"      // IWYU pragma: export
#include "exec/spill_sink.h"       // IWYU pragma: export
#include "exec/task_pool.h"        // IWYU pragma: export
#include "geom/plane_sweep.h"      // IWYU pragma: export
#include "geom/raster_interval.h"  // IWYU pragma: export
#include "geom/rect.h"             // IWYU pragma: export
#include "geom/segment.h"          // IWYU pragma: export
#include "geom/zorder.h"           // IWYU pragma: export
#include "io/disk_model.h"         // IWYU pragma: export
#include "io/io_scheduler.h"       // IWYU pragma: export
#include "io/prefetcher.h"         // IWYU pragma: export
#include "join/cost_estimator.h"   // IWYU pragma: export
#include "join/join_options.h"     // IWYU pragma: export
#include "join/join_runner.h"      // IWYU pragma: export
#include "join/predicate.h"        // IWYU pragma: export
#include "join/multiway_join.h"    // IWYU pragma: export
#include "join/refinement.h"       // IWYU pragma: export
#include "join/spatial_join.h"     // IWYU pragma: export
#include "join/window_probe.h"     // IWYU pragma: export
#include "obs/chrome_trace.h"      // IWYU pragma: export
#include "obs/metrics.h"           // IWYU pragma: export
#include "obs/query_log.h"         // IWYU pragma: export
#include "obs/trace.h"             // IWYU pragma: export
#include "rtree/rtree.h"           // IWYU pragma: export
#include "shard/decluster.h"       // IWYU pragma: export
#include "shard/sharded_join.h"    // IWYU pragma: export
#include "storage/buffer_pool.h"   // IWYU pragma: export
#include "storage/cost_model.h"    // IWYU pragma: export
#include "storage/paged_file.h"    // IWYU pragma: export
#include "storage/persistence.h"   // IWYU pragma: export
#include "storage/statistics.h"    // IWYU pragma: export

#endif  // RSJ_RSJ_H_
