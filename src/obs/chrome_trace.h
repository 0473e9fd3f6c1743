// Chrome trace-event JSON export of a TraceRecorder.
//
// The output is the classic `{"traceEvents":[...]}` array format, which
// loads directly in chrome://tracing and in Perfetto's UI
// (https://ui.perfetto.dev — "Open trace file"). The mapping:
//
//   * one Chrome PROCESS per pid — pid 0 is the shared engine/run
//     (I/O spans, pool workers, governor counters), each query
//     session gets its own pid and therefore its own top-level track;
//   * one Chrome THREAD per recorder tid, named via metadata events
//     ("pool-worker-2", "driver-q3", "probe-p0-w1", ...);
//   * 'X' spans carry their modeled-clock range as args
//     (`modeled_start_us` / `modeled_dur_us`) next to the real
//     wall-clock ts/dur, plus the span's one payload arg;
//   * 'C' events become counter tracks (governor ledger bytes per
//     category, resident-budget occupancy per query).
//
// See docs/OBSERVABILITY.md for the reading guide.

#ifndef RSJ_OBS_CHROME_TRACE_H_
#define RSJ_OBS_CHROME_TRACE_H_

#include <string>

#include "obs/trace.h"

namespace rsj {

// Renders the recorder's current snapshot as a Chrome trace-event JSON
// document (metadata first, then events sorted by timestamp).
std::string ChromeTraceJson(const TraceRecorder& recorder);

// Writes ChromeTraceJson to `path`; false on I/O failure.
bool WriteChromeTrace(const TraceRecorder& recorder, const std::string& path);

}  // namespace rsj

#endif  // RSJ_OBS_CHROME_TRACE_H_
