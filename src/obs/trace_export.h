// Trace export + fault flight recorder.
//
// * Chrome trace-event / Perfetto export: renders a registry's span stream
//   (or span events parsed back from JSONL metric files of several
//   processes) as a `chrome://tracing`-loadable JSON document. Each trace id
//   becomes one process row; spans nest by time containment, so the causal
//   tree measure-bandwidth -> fork-select -> edge compute -> transfer ->
//   cloud compute -> reply reads as one flame chart even when the edge and
//   cloud halves ran in different processes.
//
// * Flight recording: the switch that keeps spans and fault/breaker events
//   flowing into the global registry's ring (obs::FlightRecorder, declared
//   in obs/metrics.h) with metrics collection off. It is always on in field
//   mode; when something goes wrong (TransportError, deadline miss,
//   circuit-breaker open) the newest FlightRecorder::kDumpEvents events of
//   that one span store are dumped to JSONL for postmortems — the black box
//   the aggregate fault counters cannot be.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cadmc::obs {

// ---------------------------------------------------------------------------
// Chrome trace-event export.

/// Renders spans as a Chrome trace-event JSON document ("traceEvents" array
/// of complete "X" slices; ts/dur in microseconds, written exactly by
/// num_time). pid = trace id, so each causal tree gets its own track
/// group in Perfetto. The merge path for the separate edge/cloud JSONL
/// streams of a field run is to_chrome_trace(spans_from_events(events)).
std::string to_chrome_trace(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Flight recorder.

/// Runtime switch for flight recording (independent of obs::enabled() —
/// field mode turns it on unconditionally). Off by default.
void set_flight_recording(bool on);
bool flight_recording();

/// Destination for automatic dumps. Defaults to "cadmc_flight.jsonl" in the
/// working directory; the CADMC_FLIGHT_DUMP environment variable overrides
/// the default the first time it is consulted.
void set_flight_dump_path(const std::string& path);
std::string flight_dump_path();

/// Records a fault/breaker point event into the global ring (no-op while
/// flight recording is off; the current thread's innermost span, if any,
/// provides the trace linkage), then dumps the ring to flight_dump_path().
/// Dumps are rate-limited (at most one per 250 ms) so a failure storm cannot
/// turn the hot path into file I/O. Counted under cadmc.obs.flight_dumps.
void flight_fault(FlightEventKind kind, const char* name);

}  // namespace cadmc::obs
