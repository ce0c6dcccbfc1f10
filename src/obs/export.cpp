#include "obs/export.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/string_util.h"
#include "util/table.h"

namespace cadmc::obs {

namespace {

std::string field(const std::map<std::string, std::string>& event,
                  const std::string& key) {
  const auto it = event.find(key);
  return it != event.end() ? it->second : std::string();
}

}  // namespace

std::string num_g6(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string num_g12(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string num_time(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

double event_double(const std::map<std::string, std::string>& event,
                    const std::string& key, double fallback) {
  const auto it = event.find(key);
  if (it == event.end() || it->second.empty()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::uint64_t event_u64(const std::map<std::string, std::string>& event,
                        const std::string& key) {
  const auto it = event.find(key);
  if (it == event.end() || it->second.empty()) return 0;
  try {
    return std::stoull(it->second);
  } catch (const std::exception&) {
    return 0;
  }
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

RunReport make_report(const MetricsRegistry& registry) {
  RunReport report;
  report.counters = registry.counter_values();
  report.gauges = registry.gauge_values();
  report.histograms = registry.histogram_values();
  report.profile = profile_spans(registry.spans());
  return report;
}

std::string render_report(const RunReport& report) {
  std::ostringstream out;
  if (!report.counters.empty() || !report.gauges.empty()) {
    util::AsciiTable table({"Metric", "Kind", "Value"});
    for (const auto& [name, v] : report.counters)
      table.add_row({name, "counter", std::to_string(v)});
    for (const auto& [name, v] : report.gauges)
      table.add_row({name, "gauge", util::format_double(v, 3)});
    out << table.to_string();
  }
  if (!report.histograms.empty()) {
    util::AsciiTable table(
        {"Histogram", "Count", "Mean", "Min", "p50", "p90", "p99", "Max"});
    for (const auto& [name, h] : report.histograms) {
      const double mean = h.count ? h.sum / static_cast<double>(h.count) : 0.0;
      table.add_row({name, std::to_string(h.count),
                     util::format_double(mean, 3), util::format_double(h.min, 3),
                     util::format_double(h.p50, 3), util::format_double(h.p90, 3),
                     util::format_double(h.p99, 3),
                     util::format_double(h.max, 3)});
    }
    out << table.to_string();
  }
  if (!report.profile.by_name.empty()) {
    util::AsciiTable table(
        {"Span", "Count", "Wall ms", "Mean ms", "Modelled ms"});
    for (const auto& [name, s] : report.profile.by_name) {
      std::string indented(static_cast<std::size_t>(s.depth) * 2, ' ');
      indented += name;
      table.add_row({indented, std::to_string(s.count),
                     util::format_double(s.total_wall_ms, 3),
                     util::format_double(
                         s.total_wall_ms / static_cast<double>(s.count), 3),
                     util::format_double(s.total_modelled_ms, 3)});
    }
    out << table.to_string();
  }
  // Legacy streams carry no trace ids (one trace keyed 0) — skip the table.
  const std::vector<TraceProfile>& traces = report.profile.traces;
  if (!traces.empty() && !(traces.size() == 1 && traces[0].trace_id == 0)) {
    util::AsciiTable table({"Trace", "Spans", "Root", "Root ms", "Total ms"});
    for (const TraceProfile& t : traces)
      table.add_row({std::to_string(t.trace_id), std::to_string(t.span_count),
                     t.root_name.empty() ? "?" : t.root_name,
                     util::format_double(t.root_wall_ms, 3),
                     util::format_double(t.total_wall_ms, 3)});
    out << table.to_string();
  }
  if (out.str().empty()) out << "(no metrics collected)\n";
  return out.str();
}

std::string to_jsonl(const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const auto& [name, v] : registry.counter_values())
    out << "{\"type\":\"counter\",\"name\":\"" << json_escape(name)
        << "\",\"value\":" << v << "}\n";
  for (const auto& [name, v] : registry.gauge_values())
    out << "{\"type\":\"gauge\",\"name\":\"" << json_escape(name)
        << "\",\"value\":" << num_g6(v) << "}\n";
  for (const auto& [name, h] : registry.histogram_values())
    out << "{\"type\":\"histogram\",\"name\":\"" << json_escape(name)
        << "\",\"count\":" << h.count << ",\"sum\":" << num_g6(h.sum)
        << ",\"min\":" << num_g6(h.min) << ",\"max\":" << num_g6(h.max)
        << ",\"p50\":" << num_g6(h.p50) << ",\"p90\":" << num_g6(h.p90)
        << ",\"p99\":" << num_g6(h.p99) << "}\n";
  for (const SpanRecord& s : registry.spans())
    out << "{\"type\":\"span\",\"name\":\"" << json_escape(s.name)
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent_id
        << ",\"trace\":" << s.trace_id << ",\"depth\":" << s.depth
        << ",\"start_ms\":" << num_time(s.start_ms)
        << ",\"wall_ms\":" << num_time(s.wall_ms)
        << ",\"modelled_ms\":" << num_g6(s.modelled_ms) << "}\n";
  return out.str();
}

bool export_jsonl(const MetricsRegistry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_jsonl(registry);
  return static_cast<bool>(out);
}

std::vector<std::map<std::string, std::string>> parse_jsonl(
    const std::string& text) {
  std::vector<std::map<std::string, std::string>> events;
  for (const std::string& line : util::split(text, '\n')) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    std::map<std::string, std::string> event;
    std::size_t i = 0;
    const auto skip_ws = [&] {
      while (i < trimmed.size() &&
             std::isspace(static_cast<unsigned char>(trimmed[i])))
        ++i;
    };
    const auto parse_string = [&]() -> std::string {
      std::string s;
      ++i;  // opening quote
      while (i < trimmed.size() && trimmed[i] != '"') {
        if (trimmed[i] == '\\' && i + 1 < trimmed.size()) {
          ++i;
          switch (trimmed[i]) {
            case 'n': s.push_back('\n'); break;
            case 't': s.push_back('\t'); break;
            default: s.push_back(trimmed[i]);
          }
        } else {
          s.push_back(trimmed[i]);
        }
        ++i;
      }
      ++i;  // closing quote
      return s;
    };
    skip_ws();
    if (i >= trimmed.size() || trimmed[i] != '{') continue;
    ++i;
    while (i < trimmed.size()) {
      skip_ws();
      if (i < trimmed.size() && (trimmed[i] == ',' )) { ++i; continue; }
      if (i >= trimmed.size() || trimmed[i] == '}') break;
      if (trimmed[i] != '"') break;  // malformed; keep what we have
      const std::string key = parse_string();
      skip_ws();
      if (i < trimmed.size() && trimmed[i] == ':') ++i;
      skip_ws();
      if (i < trimmed.size() && trimmed[i] == '"') {
        event[key] = parse_string();
      } else {
        std::string literal;
        while (i < trimmed.size() && trimmed[i] != ',' && trimmed[i] != '}')
          literal.push_back(trimmed[i++]);
        event[key] = util::trim(literal);
      }
    }
    if (!event.empty()) events.push_back(std::move(event));
  }
  return events;
}

RunReport report_from_events(
    const std::vector<std::map<std::string, std::string>>& events) {
  RunReport report;
  for (const auto& event : events) {
    const std::string type = field(event, "type");
    const std::string name = field(event, "name");
    if (name.empty()) continue;
    if (type == "counter") {
      report.counters[name] =
          static_cast<std::int64_t>(event_double(event, "value"));
    } else if (type == "gauge") {
      report.gauges[name] = event_double(event, "value");
    } else if (type == "histogram") {
      HistogramSnapshot h;
      h.count = static_cast<std::uint64_t>(event_double(event, "count"));
      h.sum = event_double(event, "sum");
      h.min = event_double(event, "min");
      h.max = event_double(event, "max");
      h.p50 = event_double(event, "p50");
      h.p90 = event_double(event, "p90");
      h.p99 = event_double(event, "p99");
      report.histograms[name] = std::move(h);
    }
  }
  // Spans from the streams of several processes merge into single causal
  // trees by their shared trace ids.
  report.profile = profile_spans(spans_from_events(events));
  return report;
}

}  // namespace cadmc::obs
