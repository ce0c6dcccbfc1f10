#include "obs/span.h"

#include <unistd.h>

#include <chrono>
#include <vector>

#include "obs/trace_export.h"

namespace cadmc::obs {

namespace {
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();
std::atomic<std::uint64_t> g_next_span_id{1};

// Trace ids carry the pid in their upper bits so the edge and cloud
// processes of one field run never mint the same id; values stay below
// 2^48 so they survive JSON number round-trips.
std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> counter{1};
  static const std::uint64_t pid_part =
      (static_cast<std::uint64_t>(::getpid()) & 0xFFFFu) << 32;
  return pid_part | (counter.fetch_add(1, std::memory_order_relaxed) &
                     0xFFFFFFFFu);
}

struct LiveSpan {
  std::uint64_t id;
  std::uint64_t trace_id;
  double clock_offset_ms;
};
// Live spans of this thread, innermost last: the back is the parent of the
// next span opened here, and the size is its depth.
thread_local std::vector<LiveSpan> t_span_stack;
thread_local RemoteContext t_remote_context;
}  // namespace

double steady_now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() -
                                                   g_process_start)
      .count();
}

std::uint64_t record_external_span(const char* name, std::uint64_t trace_id,
                                   std::uint64_t parent_id, double start_ms,
                                   double wall_ms, int depth,
                                   FlightEventKind flight_kind) {
  if (!enabled() && !flight_recording()) return 0;
  const std::uint64_t id =
      g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::global().record_span(
      {id, parent_id, trace_id, name == nullptr ? "?" : name, depth, start_ms,
       wall_ms},
      flight_kind);
  return id;
}

RemoteSpanScope::RemoteSpanScope(const RemoteContext& ctx)
    : previous_(t_remote_context) {
  if (ctx.trace_id != 0) t_remote_context = ctx;
}

RemoteSpanScope::~RemoteSpanScope() { t_remote_context = previous_; }

OutgoingContext outgoing_context() {
  if (t_span_stack.empty()) return {};
  const LiveSpan& innermost = t_span_stack.back();
  return {innermost.trace_id, innermost.id};
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!enabled() && !flight_recording()) return;
  active_ = true;
  name_ = name;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  depth_ = static_cast<int>(t_span_stack.size());
  if (!t_span_stack.empty()) {
    const LiveSpan& parent = t_span_stack.back();
    parent_id_ = parent.id;
    trace_id_ = parent.trace_id;
    clock_offset_ms_ = parent.clock_offset_ms;
  } else if (t_remote_context.trace_id != 0) {
    parent_id_ = t_remote_context.parent_span_id;
    trace_id_ = t_remote_context.trace_id;
    clock_offset_ms_ = t_remote_context.clock_offset_ms;
  } else {
    trace_id_ = next_trace_id();
  }
  t_span_stack.push_back({id_, trace_id_, clock_offset_ms_});
  start_ms_ = steady_now_ms();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const double wall_ms = steady_now_ms() - start_ms_;
  // Destruction order is LIFO within a thread, but be tolerant of exotic
  // lifetimes: pop the newest stack entry belonging to this span.
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->id == id_) {
      t_span_stack.erase(std::next(it).base());
      break;
    }
  }
  MetricsRegistry::global().record_span({id_, parent_id_, trace_id_, name_,
                                         depth_, start_ms_ + clock_offset_ms_,
                                         wall_ms, modelled_ms_});
}

}  // namespace cadmc::obs
