#include "obs/critpath.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "obs/export.h"
#include "util/string_util.h"
#include "util/table.h"

namespace cadmc::obs {

namespace {

// Happens-before slack: recorded timestamps round-trip through text (JSONL,
// Chrome JSON), so two back-to-back spans can land a hair apart. A sibling
// ending within this of another's start still counts as "before".
constexpr double kOrderEps = 1e-6;

double span_end(const SpanRecord& s) { return s.start_ms + s.wall_ms; }

/// Ordering used everywhere ties must break deterministically.
bool span_before(const SpanRecord& a, const SpanRecord& b) {
  if (a.start_ms != b.start_ms) return a.start_ms < b.start_ms;
  if (span_end(a) != span_end(b)) return span_end(a) < span_end(b);
  return a.id < b.id;
}

/// Longest dependency chain over one sibling group (or the root group of a
/// forest). `members` are node indices sorted by span_before; `critical` is
/// the per-node critical path already computed for each member. Returns the
/// best chain value and fills `chain` with the member indices along the
/// winning chain, in time order.
double longest_chain(const std::vector<int>& members,
                     const std::vector<CritNode>& nodes,
                     const std::vector<double>& critical,
                     std::vector<int>* chain) {
  const std::size_t k = members.size();
  chain->clear();
  if (k == 0) return 0.0;
  // best[j]: weight of the best chain ending at member j; pred[j]: the
  // member it extends (-1 = chain starts at j). Members whose interval ends
  // no later than j's start are eligible predecessors — overlapping
  // siblings get no edge and therefore run in parallel.
  std::vector<double> best(k, 0.0);
  std::vector<int> pred(k, -1);
  // Sweep in start order, consuming members in end order through a running
  // prefix max — O(k log k) instead of the quadratic sibling scan, which
  // matters for wide fan-outs (thousands of requests under one gateway
  // trace). A member is consumable only once its own best is computed
  // ("processed"); the only candidates that can be unprocessed are
  // zero-width spans tied exactly at j's start, whose chains can never beat
  // the running max (their own weight is zero), so stopping at them is safe.
  std::vector<std::size_t> by_end(k);
  for (std::size_t i = 0; i < k; ++i) by_end[i] = i;
  std::sort(by_end.begin(), by_end.end(), [&](std::size_t a, std::size_t b) {
    const SpanRecord& sa = nodes[static_cast<std::size_t>(members[a])].span;
    const SpanRecord& sb = nodes[static_cast<std::size_t>(members[b])].span;
    if (span_end(sa) != span_end(sb)) return span_end(sa) < span_end(sb);
    return span_before(sa, sb);
  });
  std::vector<char> processed(k, 0);
  double run_max = -1.0;
  int run_arg = -1;
  std::size_t p = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const SpanRecord& sj = nodes[static_cast<std::size_t>(members[j])].span;
    while (p < k) {
      const std::size_t i = by_end[p];
      const SpanRecord& si = nodes[static_cast<std::size_t>(members[i])].span;
      if (span_end(si) > sj.start_ms + kOrderEps) break;
      if (!processed[i]) break;  // zero-width tie at j's start; contributes 0
      if (best[i] > run_max) {
        run_max = best[i];
        run_arg = static_cast<int>(i);
      }
      ++p;
    }
    best[j] = critical[static_cast<std::size_t>(members[j])];
    if (run_max > 0.0) {
      best[j] += run_max;
      pred[j] = run_arg;
    }
    processed[j] = 1;
  }
  std::size_t winner = 0;
  for (std::size_t j = 1; j < k; ++j)
    if (best[j] > best[winner]) winner = j;  // ties keep the earlier member
  for (int j = static_cast<int>(winner); j >= 0; j = pred[j])
    chain->push_back(members[static_cast<std::size_t>(j)]);
  std::reverse(chain->begin(), chain->end());
  return best[winner];
}

/// Union length of the children's intervals clamped to the parent's.
double covered_by_children(const CritNode& node,
                           const std::vector<CritNode>& nodes) {
  const double lo = node.span.start_ms;
  const double hi = span_end(node.span);
  double covered = 0.0;
  double cursor = lo;
  for (int c : node.children) {  // already sorted by start
    const SpanRecord& s = nodes[static_cast<std::size_t>(c)].span;
    const double b = std::max(s.start_ms, cursor);
    const double e = std::min(span_end(s), hi);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return covered;
}

TraceProfile profile_one_trace(std::uint64_t trace_id,
                               std::vector<SpanRecord> spans) {
  TraceProfile trace;
  trace.trace_id = trace_id;
  trace.span_count = spans.size();
  std::sort(spans.begin(), spans.end(), span_before);
  trace.nodes.reserve(spans.size());
  for (SpanRecord& s : spans) {
    CritNode node;
    node.span = std::move(s);
    trace.nodes.push_back(std::move(node));
  }
  std::unordered_map<std::uint64_t, int> by_id;
  by_id.reserve(trace.nodes.size());
  for (std::size_t i = 0; i < trace.nodes.size(); ++i)
    by_id.emplace(trace.nodes[i].span.id, static_cast<int>(i));

  // Link children; a span whose parent is absent (the usual root case, and
  // the cross-process case where the edge half was not merged in) is a root.
  std::vector<int> roots;
  for (std::size_t i = 0; i < trace.nodes.size(); ++i) {
    CritNode& node = trace.nodes[i];
    const std::uint64_t pid = node.span.parent_id;
    const auto it = pid != 0 && pid != node.span.id ? by_id.find(pid)
                                                    : by_id.end();
    if (it == by_id.end()) {
      roots.push_back(static_cast<int>(i));
    } else {
      node.parent = it->second;
      trace.nodes[static_cast<std::size_t>(it->second)].children.push_back(
          static_cast<int>(i));
    }
  }

  // Iterative post-order from the roots: children are fully resolved before
  // their parent. Nodes a malformed stream leaves unreachable (parent
  // cycles) are promoted to roots rather than dropped.
  std::vector<char> visited(trace.nodes.size(), 0);
  std::vector<int> order;
  order.reserve(trace.nodes.size());
  const auto walk = [&](int root) {
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    visited[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [n, next_child] = stack.back();
      const CritNode& node = trace.nodes[static_cast<std::size_t>(n)];
      if (next_child < node.children.size()) {
        const int c = node.children[next_child++];
        visited[static_cast<std::size_t>(c)] = 1;
        stack.push_back({c, 0});
      } else {
        order.push_back(n);
        stack.pop_back();
      }
    }
  };
  for (int r : roots) walk(r);
  for (std::size_t i = 0; i < trace.nodes.size(); ++i) {
    if (!visited[i]) {
      trace.nodes[i].parent = -1;
      roots.push_back(static_cast<int>(i));
      walk(static_cast<int>(i));
    }
  }
  std::sort(roots.begin(), roots.end(), [&](int a, int b) {
    return span_before(trace.nodes[static_cast<std::size_t>(a)].span,
                       trace.nodes[static_cast<std::size_t>(b)].span);
  });

  // Bottom-up: self time and per-subtree critical path; remember each
  // node's winning child chain for the marking pass.
  std::vector<double> critical(trace.nodes.size(), 0.0);
  std::vector<std::vector<int>> child_chain(trace.nodes.size());
  for (int n : order) {
    CritNode& node = trace.nodes[static_cast<std::size_t>(n)];
    node.self_ms =
        std::max(0.0, node.span.wall_ms - covered_by_children(node, trace.nodes));
    const double through_children =
        longest_chain(node.children, trace.nodes, critical,
                      &child_chain[static_cast<std::size_t>(n)]);
    node.critical_ms = node.self_ms + through_children;
    critical[static_cast<std::size_t>(n)] = node.critical_ms;
  }

  std::vector<int> root_chain;
  trace.critical_path_ms =
      longest_chain(roots, trace.nodes, critical, &root_chain);

  // Mark the winning chains top-down.
  std::vector<int> stack = root_chain;
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    trace.nodes[static_cast<std::size_t>(n)].on_critical_path = true;
    for (int c : child_chain[static_cast<std::size_t>(n)]) stack.push_back(c);
  }
  for (std::size_t i = 0; i < trace.nodes.size(); ++i)
    if (trace.nodes[i].on_critical_path)
      trace.critical_nodes.push_back(static_cast<int>(i));
  // Path order: by start time, ancestors before the children they enclose
  // (longer interval first on a start tie), span id as the final tie-break.
  std::sort(trace.critical_nodes.begin(), trace.critical_nodes.end(),
            [&](int a, int b) {
              const SpanRecord& sa = trace.nodes[static_cast<std::size_t>(a)].span;
              const SpanRecord& sb = trace.nodes[static_cast<std::size_t>(b)].span;
              if (sa.start_ms != sb.start_ms) return sa.start_ms < sb.start_ms;
              const double end_a = sa.start_ms + sa.wall_ms;
              const double end_b = sb.start_ms + sb.wall_ms;
              if (end_a != end_b) return end_a > end_b;
              return sa.id < sb.id;
            });

  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const CritNode& node : trace.nodes) {
    lo = std::min(lo, node.span.start_ms);
    hi = std::max(hi, span_end(node.span));
    trace.total_work_ms += node.self_ms;
    trace.total_wall_ms += node.span.wall_ms;
  }
  trace.makespan_ms = trace.nodes.empty() ? 0.0 : hi - lo;
  if (!roots.empty()) {
    const SpanRecord& root =
        trace.nodes[static_cast<std::size_t>(roots.front())].span;
    trace.root_name = root.name;
    trace.root_wall_ms = root.wall_ms;
  }
  trace.parallelism = trace.critical_path_ms > 0.0
                          ? trace.total_work_ms / trace.critical_path_ms
                          : 1.0;
  return trace;
}

}  // namespace

ProfileReport profile_spans(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<SpanRecord>> by_trace;
  for (const SpanRecord& s : spans) by_trace[s.trace_id].push_back(s);

  ProfileReport report;
  report.traces.reserve(by_trace.size());
  for (auto& [trace_id, trace_spans] : by_trace) {
    TraceProfile trace = profile_one_trace(trace_id, std::move(trace_spans));
    report.critical_total_ms += trace.critical_path_ms;
    report.work_total_ms += trace.total_work_ms;
    for (const CritNode& node : trace.nodes) {
      CritPathStats& stats = report.by_name[node.span.name];
      if (stats.count++ == 0) stats.depth = node.span.depth;
      stats.total_wall_ms += node.span.wall_ms;
      stats.total_self_ms += node.self_ms;
      if (node.span.modelled_ms >= 0.0)
        stats.total_modelled_ms += node.span.modelled_ms;
      if (node.on_critical_path) {
        ++stats.critical_count;
        stats.critical_self_ms += node.self_ms;
      }
    }
    report.traces.push_back(std::move(trace));
  }
  report.parallelism = report.critical_total_ms > 0.0
                           ? report.work_total_ms / report.critical_total_ms
                           : 1.0;
  // The serial bottleneck: the name whose self time dominates the critical
  // paths. std::map iteration makes the tie-break lexicographic.
  double best = -1.0;
  for (const auto& [name, stats] : report.by_name) {
    if (stats.critical_self_ms > best) {
      best = stats.critical_self_ms;
      report.bottleneck = name;
    }
  }
  if (report.critical_total_ms > 0.0 && !report.bottleneck.empty())
    report.bottleneck_share =
        report.by_name[report.bottleneck].critical_self_ms /
        report.critical_total_ms;
  return report;
}

std::vector<SpanRecord> spans_from_events(
    const std::vector<std::map<std::string, std::string>>& events) {
  std::vector<SpanRecord> spans;
  for (const auto& event : events) {
    const auto type = event.find("type");
    if (type == event.end() || type->second != "span") continue;
    const auto name = event.find("name");
    if (name == event.end() || name->second.empty()) continue;
    SpanRecord s;
    s.name = name->second;
    s.id = event_u64(event, "id");
    s.parent_id = event_u64(event, "parent");
    s.trace_id = event_u64(event, "trace");
    s.depth = static_cast<int>(event_double(event, "depth"));
    s.start_ms = event_double(event, "start_ms");
    s.wall_ms = event_double(event, "wall_ms");
    s.modelled_ms = event_double(event, "modelled_ms", -1.0);
    spans.push_back(std::move(s));
  }
  return spans;
}

namespace {

/// Scans one JSON object (starting at `i` == '{'), collecting scalar values
/// keyed by name; nested objects recurse with a dotted prefix ("args.id").
/// Returns the index one past the closing brace. Tolerant by design: this
/// only needs to read back what to_chrome_trace wrote.
std::size_t scan_object(const std::string& text, std::size_t i,
                        const std::string& prefix,
                        std::map<std::string, std::string>& out) {
  const auto scan_string = [&](std::size_t at, std::string* value) {
    std::string s;
    ++at;  // opening quote
    while (at < text.size() && text[at] != '"') {
      if (text[at] == '\\' && at + 1 < text.size()) {
        ++at;
        switch (text[at]) {
          case 'n': s.push_back('\n'); break;
          case 't': s.push_back('\t'); break;
          default: s.push_back(text[at]);
        }
      } else {
        s.push_back(text[at]);
      }
      ++at;
    }
    if (value != nullptr) *value = std::move(s);
    return at < text.size() ? at + 1 : at;
  };
  ++i;  // '{'
  while (i < text.size() && text[i] != '}') {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    std::string key;
    i = scan_string(i, &key);
    while (i < text.size() && (text[i] == ':' || std::isspace(
                                   static_cast<unsigned char>(text[i]))))
      ++i;
    if (i >= text.size()) break;
    if (text[i] == '{') {
      i = scan_object(text, i, prefix + key + ".", out);
    } else if (text[i] == '[') {
      int depth = 0;  // skip arrays wholesale (none carry span fields)
      bool in_string = false;
      for (; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
          if (c == '\\') ++i;
          else if (c == '"') in_string = false;
        } else if (c == '"') {
          in_string = true;
        } else if (c == '[') {
          ++depth;
        } else if (c == ']' && --depth == 0) {
          ++i;
          break;
        }
      }
    } else if (text[i] == '"') {
      std::string value;
      i = scan_string(i, &value);
      out[prefix + key] = std::move(value);
    } else {
      std::string literal;
      while (i < text.size() && text[i] != ',' && text[i] != '}')
        literal.push_back(text[i++]);
      out[prefix + key] = util::trim(literal);
    }
    while (i < text.size() && (text[i] == ',' || std::isspace(
                                   static_cast<unsigned char>(text[i]))))
      ++i;
  }
  return i < text.size() ? i + 1 : i;
}

}  // namespace

bool looks_like_chrome_trace(const std::string& text) {
  const std::size_t probe = std::min<std::size_t>(text.size(), 256);
  return text.compare(0, 1, "{") == 0 &&
         text.substr(0, probe).find("traceEvents") != std::string::npos;
}

std::vector<SpanRecord> spans_from_chrome_trace(const std::string& json) {
  std::vector<SpanRecord> spans;
  const std::size_t array_at = json.find("\"traceEvents\"");
  if (array_at == std::string::npos) return spans;
  std::size_t i = json.find('[', array_at);
  if (i == std::string::npos) return spans;
  ++i;
  while (i < json.size()) {
    while (i < json.size() && json[i] != '{' && json[i] != ']') ++i;
    if (i >= json.size() || json[i] == ']') break;
    std::map<std::string, std::string> fields;
    i = scan_object(json, i, "", fields);
    const auto name = fields.find("name");
    if (name == fields.end() || fields.count("ts") == 0) continue;
    SpanRecord s;
    s.name = name->second;
    s.start_ms = event_double(fields, "ts") / 1000.0;  // Chrome ts/dur are µs
    s.wall_ms = event_double(fields, "dur") / 1000.0;
    s.trace_id = event_u64(fields, "pid");
    s.id = event_u64(fields, "args.id");
    s.parent_id = event_u64(fields, "args.parent");
    s.modelled_ms = event_double(fields, "args.modelled_ms", -1.0);
    spans.push_back(std::move(s));
  }
  return spans;
}

std::string render_profile(const ProfileReport& report, std::size_t top) {
  std::ostringstream out;
  out << "critical path: " << util::format_double(report.critical_total_ms, 3)
      << " ms over " << report.traces.size() << " trace(s), total work "
      << util::format_double(report.work_total_ms, 3) << " ms, parallelism "
      << util::format_double(report.parallelism, 2) << "x\n";
  if (!report.bottleneck.empty())
    out << "serial bottleneck: " << report.bottleneck << " ("
        << util::format_double(report.bottleneck_share * 100.0, 1)
        << "% of the critical path)\n";

  if (!report.by_name.empty()) {
    // Sorted by critical self time: the top row is where optimization pays.
    std::vector<std::pair<std::string, const CritPathStats*>> rows;
    rows.reserve(report.by_name.size());
    for (const auto& [name, stats] : report.by_name)
      rows.emplace_back(name, &stats);
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second->critical_self_ms != b.second->critical_self_ms)
        return a.second->critical_self_ms > b.second->critical_self_ms;
      return a.first < b.first;
    });
    if (top > 0 && rows.size() > top) rows.resize(top);
    util::AsciiTable table({"Span", "Count", "On path", "Self ms",
                            "Crit self ms", "% crit", "Wall ms",
                            "Modelled ms"});
    for (const auto& [name, stats] : rows) {
      const double share = report.critical_total_ms > 0.0
                               ? stats->critical_self_ms /
                                     report.critical_total_ms * 100.0
                               : 0.0;
      table.add_row({name, std::to_string(stats->count),
                     std::to_string(stats->critical_count),
                     util::format_double(stats->total_self_ms, 3),
                     util::format_double(stats->critical_self_ms, 3),
                     util::format_double(share, 1),
                     util::format_double(stats->total_wall_ms, 3),
                     util::format_double(stats->total_modelled_ms, 3)});
    }
    out << table.to_string();
  }

  if (!report.traces.empty()) {
    std::vector<const TraceProfile*> longest;
    longest.reserve(report.traces.size());
    for (const TraceProfile& t : report.traces) longest.push_back(&t);
    std::sort(longest.begin(), longest.end(),
              [](const TraceProfile* a, const TraceProfile* b) {
                if (a->critical_path_ms != b->critical_path_ms)
                  return a->critical_path_ms > b->critical_path_ms;
                return a->trace_id < b->trace_id;
              });
    if (top > 0 && longest.size() > top) longest.resize(top);
    util::AsciiTable table({"Trace", "Root", "Spans", "Makespan ms",
                            "Critical ms", "Work ms", "Parallelism"});
    for (const TraceProfile* t : longest)
      table.add_row({std::to_string(t->trace_id),
                     t->root_name.empty() ? "?" : t->root_name,
                     std::to_string(t->span_count),
                     util::format_double(t->makespan_ms, 3),
                     util::format_double(t->critical_path_ms, 3),
                     util::format_double(t->total_work_ms, 3),
                     util::format_double(t->parallelism, 2)});
    out << table.to_string();

    // The longest trace's critical path, step by step — the chain to cut.
    const TraceProfile& worst = *longest.front();
    out << "critical path of trace " << worst.trace_id << ":";
    std::size_t shown = 0;
    for (int n : worst.critical_nodes) {
      const CritNode& node = worst.nodes[static_cast<std::size_t>(n)];
      if (top > 0 && shown++ >= top) {
        out << " -> ...(" << worst.critical_nodes.size() - top << " more)";
        break;
      }
      out << (shown == 1 ? " " : " -> ") << node.span.name << "("
          << util::format_double(node.self_ms, 3) << ")";
    }
    out << "\n";
  }
  if (report.traces.empty()) out << "(no spans to profile)\n";
  return out.str();
}

std::string profile_jsonl(const ProfileReport& report) {
  std::ostringstream out;
  out << "{\"type\":\"critpath\",\"traces\":" << report.traces.size()
      << ",\"critical_ms\":" << num_g12(report.critical_total_ms)
      << ",\"work_ms\":" << num_g12(report.work_total_ms)
      << ",\"parallelism\":" << num_g12(report.parallelism)
      << ",\"bottleneck\":\"" << json_escape(report.bottleneck)
      << "\",\"bottleneck_share\":" << num_g12(report.bottleneck_share)
      << "}\n";
  for (const auto& [name, stats] : report.by_name)
    out << "{\"type\":\"critpath_name\",\"name\":\"" << json_escape(name)
        << "\",\"count\":" << stats.count
        << ",\"critical_count\":" << stats.critical_count
        << ",\"wall_ms\":" << num_g12(stats.total_wall_ms)
        << ",\"self_ms\":" << num_g12(stats.total_self_ms)
        << ",\"critical_self_ms\":" << num_g12(stats.critical_self_ms)
        << ",\"modelled_ms\":" << num_g12(stats.total_modelled_ms) << "}\n";
  for (const TraceProfile& t : report.traces) {
    out << "{\"type\":\"critpath_trace\",\"trace\":" << t.trace_id
        << ",\"root\":\"" << json_escape(t.root_name)
        << "\",\"spans\":" << t.span_count
        << ",\"makespan_ms\":" << num_g12(t.makespan_ms)
        << ",\"critical_ms\":" << num_g12(t.critical_path_ms)
        << ",\"work_ms\":" << num_g12(t.total_work_ms)
        << ",\"parallelism\":" << num_g12(t.parallelism) << ",\"path\":\"";
    bool first = true;
    for (int n : t.critical_nodes) {
      if (!first) out << ">";
      first = false;
      out << json_escape(t.nodes[static_cast<std::size_t>(n)].span.name);
    }
    out << "\"}\n";
  }
  return out.str();
}

std::string profile_csv(const ProfileReport& report) {
  std::ostringstream out;
  out << "kind,name,count,critical_count,wall_ms,self_ms,critical_self_ms,"
         "share\n";
  out << "summary," << csv_escape(report.bottleneck) << ","
      << report.traces.size() << ",," << num_g12(report.critical_total_ms)
      << "," << num_g12(report.work_total_ms) << ",,"
      << num_g12(report.bottleneck_share) << "\n";
  for (const auto& [name, stats] : report.by_name) {
    const double share = report.critical_total_ms > 0.0
                             ? stats.critical_self_ms / report.critical_total_ms
                             : 0.0;
    out << "name," << csv_escape(name) << "," << stats.count << ","
        << stats.critical_count << "," << num_g12(stats.total_wall_ms) << ","
        << num_g12(stats.total_self_ms) << ","
        << num_g12(stats.critical_self_ms) << "," << num_g12(share) << "\n";
  }
  for (const TraceProfile& t : report.traces)
    out << "trace," << csv_escape(t.root_name) << "," << t.span_count << ",,"
        << num_g12(t.makespan_ms) << "," << num_g12(t.total_work_ms) << ","
        << num_g12(t.critical_path_ms) << "," << num_g12(t.parallelism) << "\n";
  return out.str();
}

}  // namespace cadmc::obs
