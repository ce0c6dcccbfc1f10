// Exporters over a MetricsRegistry: a JSONL event stream (one flat JSON
// object per counter/gauge/histogram/span), a structured RunReport snapshot,
// and human-readable text / CSV renderings of that report (util::table /
// util::csv shapes, like the paper benches). Also home to the number
// formatters and the field decoders every obs writer and reader shares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "obs/metrics.h"

namespace cadmc::obs {

/// End-of-run snapshot of everything a registry collected. The spans are
/// held as their critical-path profile, the one span model of src/obs:
/// render_report's span table reads profile.by_name and its trace table
/// profile.traces (individual records remain available via
/// MetricsRegistry::spans / the JSONL stream).
struct RunReport {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  ProfileReport profile;
};

/// The registry's metric maps plus profile_spans(registry.spans()).
RunReport make_report(const MetricsRegistry& registry);

/// Renders the report as ASCII tables: Counters/Gauges, Histograms, Spans
/// (per name: count, wall, mean and modelled ms, indented by the depth of
/// the first instance) and Traces (spans, root, root ms, total wall ms).
std::string render_report(const RunReport& report);

/// One JSONL line per metric and span. Example lines:
///   {"type":"counter","name":"cadmc.search.episodes","value":150}
///   {"type":"span","name":"compose","id":4,"parent":3,"depth":1,
///    "start_ms":12.834,"wall_ms":0.112,"modelled_ms":-1}
std::string to_jsonl(const MetricsRegistry& registry);

/// Writes to_jsonl() to `path`; returns false on I/O failure.
bool export_jsonl(const MetricsRegistry& registry, const std::string& path);

/// Parses a stream of flat JSON objects (string/number values — the shape
/// to_jsonl emits) into key->literal maps, one per line. String values are
/// unescaped; numbers keep their textual form. Blank lines are skipped.
std::vector<std::map<std::string, std::string>> parse_jsonl(
    const std::string& text);

/// Field decoders over one parse_jsonl event (or one flattened Chrome trace
/// event): the value under `key` as a number, or `fallback` / 0 when the key
/// is absent, empty or not a number. Every obs reader decodes through these.
double event_double(const std::map<std::string, std::string>& event,
                    const std::string& key, double fallback = 0.0);
std::uint64_t event_u64(const std::map<std::string, std::string>& event,
                        const std::string& key);

/// Rebuilds a report from parsed JSONL events (the `report` CLI
/// subcommand): the metric maps from their events, the profile from
/// spans_from_events. Histogram quantiles are taken from the event fields.
RunReport report_from_events(
    const std::vector<std::map<std::string, std::string>>& events);

/// Number formatters shared by every obs writer, one per output precision.
/// num_g6: 6 significant digits, integral values printed whole
/// ("1000000", not "1e+06") — metric values and modelled ms.
std::string num_g6(double v);
/// num_g12: 12 significant digits — profile outputs and heartbeats.
std::string num_g12(double v);
/// num_time: the shortest text that parses back to exactly `v`
/// (std::to_chars) — span start/wall ms, Chrome ts/dur µs, flight t_ms and
/// dur_ms. A fixed digit count would not do: an hour of uptime is 3.6e6 ms
/// (3.6e9 µs), where %.6g rounds to whole seconds and the profiler's
/// happens-before order (end <= start of the next span) would collapse.
std::string num_time(double v);

std::string json_escape(const std::string& s);

/// RFC 4180 field escaping: a value containing a comma, double quote, CR or
/// LF is wrapped in double quotes with inner quotes doubled; anything else
/// passes through unchanged. Applied to every name profile_csv emits so a
/// hostile span name ("conv,3x3" or a name with a newline) cannot desync the
/// CSV columns.
std::string csv_escape(const std::string& s);

}  // namespace cadmc::obs
