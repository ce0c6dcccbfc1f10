#include "obs/trace_export.h"

#include <cstdlib>
#include <cstring>
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

const char* kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kSpan: return "span";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kBreaker: return "breaker";
    case FlightEventKind::kQueue: return "queue";
  }
  return "?";
}

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

std::string to_chrome_trace(const MetricsRegistry& registry) {
  return to_chrome_trace(registry.spans());
}

bool export_chrome_trace(const MetricsRegistry& registry,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_chrome_trace(registry);
  return static_cast<bool>(out);
}

void set_flight_recording(bool on) {
  g_flight_on.store(on, std::memory_order_relaxed);
}

bool flight_recording() {
  return g_flight_on.load(std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder instance;
  return instance;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::record(FlightEventKind kind, const char* name,
                            std::uint64_t trace_id, std::uint64_t span_id,
                            std::uint64_t parent_id, double t_ms,
                            double dur_ms) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % capacity_];
  Event event;
  event.kind = kind;
  std::strncpy(event.name, name == nullptr ? "?" : name, kNameCapacity - 1);
  event.name[kNameCapacity - 1] = '\0';
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_id = parent_id;
  event.t_ms = t_ms;
  event.dur_ms = dur_ms;
  // Seqlock write: odd while in flight, 2*ticket+2 once published. A reader
  // that sees mismatched or odd sequence numbers discards the slot. The
  // payload goes through relaxed word atomics between the fences (see the
  // Slot comment in the header).
  std::uint64_t staged[kSlotWords] = {};
  std::memcpy(staged, &event, sizeof(event));
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t w = 0; w < kSlotWords; ++w)
    slot.words[w].store(staged[w], std::memory_order_relaxed);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

void FlightRecorder::record_span(const SpanRecord& span) {
  record(FlightEventKind::kSpan, span.name.c_str(), span.trace_id, span.id,
         span.parent_id, span.start_ms, span.wall_ms);
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = head < capacity_ ? head : capacity_;
  std::vector<Event> events;
  events.reserve(count);
  for (std::uint64_t ticket = head - count; ticket < head; ++ticket) {
    const Slot& slot = slots_[ticket % capacity_];
    const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != 2 * ticket + 2) continue;  // torn or already recycled
    std::uint64_t staged[kSlotWords];
    for (std::size_t w = 0; w < kSlotWords; ++w)
      staged[w] = slot.words[w].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
    Event copy;
    std::memcpy(&copy, staged, sizeof(copy));
    events.push_back(copy);
  }
  return events;
}

void FlightRecorder::clear() {
  for (std::size_t i = 0; i < capacity_; ++i)
    slots_[i].seq.store(0, std::memory_order_relaxed);
  head_.store(0, std::memory_order_relaxed);
}

bool FlightRecorder::dump_jsonl(const std::string& path,
                                const std::string& reason) const {
  const std::vector<Event> events = snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"type\":\"flight_dump\",\"reason\":\"" << json_escape(reason)
      << "\",\"events\":" << events.size() << ",\"recorded\":" << recorded()
      << "}\n";
  for (const Event& e : events) {
    out << "{\"type\":\"flight\",\"kind\":\"" << kind_name(e.kind)
        << "\",\"name\":\"" << json_escape(e.name) << "\",\"trace\":"
        << e.trace_id << ",\"id\":" << e.span_id << ",\"parent\":"
        << e.parent_id << ",\"t_ms\":" << num_time(e.t_ms) << ",\"dur_ms\":"
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

void flight_event(FlightEventKind kind, const char* name) {
  if (!flight_recording()) return;
  const OutgoingContext ctx = outgoing_context();
  FlightRecorder::global().record(kind, name, ctx.trace_id, 0, ctx.span_id,
                                  steady_now_ms(), 0.0);
}

void flight_fault(FlightEventKind kind, const char* name) {
  if (!flight_recording()) return;
  flight_event(kind, name);
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
