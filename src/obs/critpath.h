// Hierarchical critical-path profiler over the span stream (the kremlin
// idea applied to our traces): given the closed spans of one run — from a
// live MetricsRegistry, a recorded JSONL metrics stream, or an exported
// Chrome trace, with the cross-process cloud spans merged by trace id — it
// reconstructs each trace's span tree and answers the question every perf
// PR starts from: *what is the serial bottleneck of a frame, and how much
// of the rest is parallelizable?*
//
// Definitions (all durations in ms, computed from recorded wall times):
//
//  * self time  — a span's wall time minus the part of its interval covered
//    by its children (children clamped to the parent's interval). This is
//    work attributed to the span itself, never double-counted with a child.
//  * critical path of a span — self time plus the longest dependency chain
//    through its children, where child A precedes child B iff A ends before
//    B starts (non-overlapping siblings are serialized; overlapping
//    siblings — e.g. worker threads — are parallel, so only the longer
//    chain contributes). Recursively, each child contributes its own
//    critical path. For a purely serial trace the critical path equals the
//    root's wall time; for an ideally parallel one it approaches the
//    longest single chain.
//  * total work of a trace — the sum of self times over all its spans (what
//    infinitely many cores would still have to execute).
//  * parallelism ratio — total work / critical path: 1.0 means fully
//    serial, N means N-way parallel on average along the run.
//
// The per-name aggregation marks every span instance that lies on its
// trace's critical path and accumulates the self time it contributed there;
// the name with the largest such contribution is the run's serial
// bottleneck — shortening anything else cannot shorten the run.
//
// Everything here is a pure function of the input records: a fixed recorded
// trace file yields a bit-identical report (ties in chain selection break
// by earlier start, then smaller span id).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cadmc::obs {

/// One span as the profiler sees it, annotated with tree and critical-path
/// results. Indices refer into TraceProfile::nodes.
struct CritNode {
  SpanRecord span;
  int parent = -1;            // -1 = root of its trace
  std::vector<int> children;  // sorted by (start_ms, id)
  double self_ms = 0.0;
  double critical_ms = 0.0;   // critical path of this subtree
  bool on_critical_path = false;
};

/// Critical-path analysis of one causal tree (one frame / one request).
struct TraceProfile {
  std::uint64_t trace_id = 0;
  std::string root_name;           // first root's name
  double root_wall_ms = 0.0;       // first root's wall time
  std::size_t span_count = 0;
  double total_wall_ms = 0.0;      // sum of every span's wall time
  double makespan_ms = 0.0;        // max end - min start over all spans
  double critical_path_ms = 0.0;   // longest dependency chain of the trace
  double total_work_ms = 0.0;      // sum of self times
  double parallelism = 1.0;        // total work / critical path
  std::vector<CritNode> nodes;
  std::vector<int> critical_nodes; // indices along the path, in time order
};

/// Per-span-name statistics aggregated across every trace of a run.
struct CritPathStats {
  std::uint64_t count = 0;          // span instances
  int depth = 0;                    // SpanRecord::depth of the first instance
                                    // (lowest trace id, then earliest start)
  std::uint64_t critical_count = 0; // instances on a critical path
  double total_wall_ms = 0.0;
  double total_self_ms = 0.0;
  double critical_self_ms = 0.0;    // self time contributed on critical paths
  double total_modelled_ms = 0.0;   // sum over records that set it
};

struct ProfileReport {
  std::vector<TraceProfile> traces;         // ordered by trace id
  std::map<std::string, CritPathStats> by_name;
  double critical_total_ms = 0.0;  // sum of per-trace critical paths
  double work_total_ms = 0.0;      // sum of per-trace total work
  double parallelism = 1.0;        // work_total / critical_total
  std::string bottleneck;          // name with max critical_self_ms
  double bottleneck_share = 0.0;   // its critical_self / critical_total
};

/// Profiles a span set. Spans are grouped by trace id; spans whose parent id
/// is absent from their trace (or zero) become roots. A trace with several
/// roots is treated as a forest under a virtual root: the roots themselves
/// are chained by the same happens-before rule, so two sequential root
/// frames serialize and two concurrent ones parallelize.
ProfileReport profile_spans(const std::vector<SpanRecord>& spans);

/// Extracts span records from parsed JSONL events (obs::parse_jsonl shape,
/// "type":"span" lines). Events from several files can be concatenated
/// first — the cloud half of a field run merges by shared trace ids.
std::vector<SpanRecord> spans_from_events(
    const std::vector<std::map<std::string, std::string>>& events);

/// Parses a Chrome trace-event JSON document (the to_chrome_trace shape:
/// complete "X" slices with ts/dur in microseconds, pid = trace id, args
/// carrying span/parent ids) back into span records. Tolerates unknown
/// fields; events without a ts or name are skipped.
std::vector<SpanRecord> spans_from_chrome_trace(const std::string& json);

/// True when `text` looks like a Chrome trace document rather than a JSONL
/// metrics stream (used by `cadmc profile` to auto-detect its input).
bool looks_like_chrome_trace(const std::string& text);

/// Renders the report as ASCII tables: a run summary (work, critical path,
/// parallelism, bottleneck), the per-name table sorted by critical self
/// time, and the critical path of the longest trace. `top` caps the
/// per-name and per-trace rows (0 = unlimited).
std::string render_profile(const ProfileReport& report, std::size_t top = 20);

/// One JSONL line per aggregate, per name and per trace:
///   {"type":"critpath","critical_ms":...,"work_ms":...,"parallelism":...,
///    "bottleneck":"...","bottleneck_share":...}
///   {"type":"critpath_name","name":"...","count":N,...}
///   {"type":"critpath_trace","trace":ID,"critical_ms":...,...}
std::string profile_jsonl(const ProfileReport& report);

/// CSV rows (names escaped per RFC 4180, see obs::csv_escape):
///   kind,name,count,critical_count,wall_ms,self_ms,critical_self_ms,share
std::string profile_csv(const ProfileReport& report);

}  // namespace cadmc::obs
