#include "obs/trace_export.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "obs/export.h"
#include "obs/span.h"

namespace cadmc::obs {

namespace {

std::atomic<bool> g_flight_on{false};
std::mutex g_dump_mutex;           // guards the path string and dump writes
std::string g_dump_path;           // empty = not resolved yet
std::atomic<std::int64_t> g_last_dump_ms{-1'000'000};

// Wire names of FlightEventKind, in enum order.
constexpr const char* kKindNames[] = {"span", "fault", "breaker", "queue"};

}  // namespace

std::string to_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"cadmc\",\"ph\":\"X\",\"ts\":"
        << num_time(s.start_ms * 1000.0)
        << ",\"dur\":" << num_time(s.wall_ms * 1000.0)
        << ",\"pid\":" << s.trace_id << ",\"tid\":1,\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent_id
        << ",\"modelled_ms\":" << num_g6(s.modelled_ms) << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

void set_flight_recording(bool on) {
  g_flight_on.store(on, std::memory_order_relaxed);
}

bool flight_recording() {
  return g_flight_on.load(std::memory_order_relaxed);
}

bool FlightRecorder::dump_jsonl(const std::string& path,
                                const std::string& reason) const {
  const std::vector<Event> events = snapshot(kDumpEvents);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"type\":\"flight_dump\",\"reason\":\"" << json_escape(reason)
      << "\",\"events\":" << events.size() << ",\"recorded\":" << recorded()
      << "}\n";
  for (const Event& e : events) {
    out << "{\"type\":\"flight\",\"kind\":\""
        << kKindNames[static_cast<int>(e.kind)] << "\",\"name\":\""
        << json_escape(e.name) << "\",\"trace\":" << e.trace_id
        << ",\"id\":" << e.span_id << ",\"parent\":" << e.parent_id
        << ",\"t_ms\":" << num_time(e.t_ms) << ",\"dur_ms\":"
        << num_time(e.dur_ms) << "}\n";
  }
  return static_cast<bool>(out);
}

void set_flight_dump_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_dump_mutex);
  g_dump_path = path;
}

std::string flight_dump_path() {
  std::lock_guard<std::mutex> lock(g_dump_mutex);
  if (g_dump_path.empty()) {
    const char* env = std::getenv("CADMC_FLIGHT_DUMP");
    g_dump_path = env != nullptr && env[0] != '\0' ? env
                                                   : "cadmc_flight.jsonl";
  }
  return g_dump_path;
}

void flight_fault(FlightEventKind kind, const char* name) {
  if (!flight_recording()) return;
  const OutgoingContext ctx = outgoing_context();
  FlightRecorder::global().record(kind, name, ctx.trace_id, 0, ctx.span_id,
                                  steady_now_ms(), 0.0);
  // Rate limit: a reconnect storm must not turn every failure into a file
  // write; the ring still holds the history for the dump that does land.
  // Breaker transitions bypass the limit — they are rare by construction
  // (one per outage) and usually follow within milliseconds of the fault
  // dump that would otherwise swallow them.
  const auto now = static_cast<std::int64_t>(steady_now_ms());
  if (kind != FlightEventKind::kBreaker) {
    std::int64_t last = g_last_dump_ms.load(std::memory_order_relaxed);
    if (now - last < 250) return;
    if (!g_last_dump_ms.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed))
      return;
  } else {
    g_last_dump_ms.store(now, std::memory_order_relaxed);
  }
  count("cadmc.obs.flight_dumps");
  FlightRecorder::global().dump_jsonl(flight_dump_path(), name);
}

}  // namespace cadmc::obs
