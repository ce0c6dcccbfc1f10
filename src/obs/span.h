// Scoped tracing spans. A ScopedSpan measures the wall-clock time between
// its construction and destruction, nests under the innermost live span on
// the same thread (parent/child ids + depth), and can carry the analytic
// model's duration alongside the measured one (`set_modelled_ms`) — the
// hot paths report both so the Fig. 5 calibration gap is visible per stage.
//
// Distributed tracing: every span belongs to a trace (a causal tree).
// A root span (no live parent on its thread) opens a fresh trace; a
// RemoteSpanScope installs a parent received over the wire (see
// runtime/transport.h) so spans on the receiving side — typically the cloud
// half of a partitioned inference — join the sender's trace, parented under
// the sender's request span and time-shifted into the sender's clock.
//
// Spans are inert (no clock read, no allocation — the name parameter is a
// `const char*` precisely so no std::string is materialised) while both
// obs::enabled() and obs::flight_recording() are false.
#pragma once

#include <cstdint>

#include "obs/metrics.h"

namespace cadmc::obs {

class ScopedSpan {
 public:
  /// Records into the global registry's ring on destruction. `name` must
  /// outlive the span (string literals do).
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when collection or flight recording was on at construction time.
  bool active() const { return active_; }

  std::uint64_t id() const { return id_; }
  std::uint64_t trace_id() const { return trace_id_; }

  void set_modelled_ms(double ms) { modelled_ms_ = ms; }
  void add_modelled_ms(double ms) {
    modelled_ms_ = (modelled_ms_ < 0.0 ? 0.0 : modelled_ms_) + ms;
  }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint64_t trace_id_ = 0;
  int depth_ = 0;
  double start_ms_ = 0.0;
  double clock_offset_ms_ = 0.0;  // added to start_ms when recording
  double modelled_ms_ = -1.0;
};

/// A parent span received from another process/thread over the wire.
/// `clock_offset_ms` is added to local steady_now_ms() readings to express
/// spans in the sender's timebase (sender_clock_at_send - local_clock_at_recv).
struct RemoteContext {
  std::uint64_t trace_id = 0;       // 0 = no remote parent (scope is a no-op)
  std::uint64_t parent_span_id = 0;
  double clock_offset_ms = 0.0;
};

/// Installs `ctx` as this thread's remote parent for the scope's lifetime:
/// spans opened with no live local parent adopt its trace id, parent span id
/// and clock offset. Restores the previous remote context on destruction.
class RemoteSpanScope {
 public:
  explicit RemoteSpanScope(const RemoteContext& ctx);
  ~RemoteSpanScope();
  RemoteSpanScope(const RemoteSpanScope&) = delete;
  RemoteSpanScope& operator=(const RemoteSpanScope&) = delete;

 private:
  RemoteContext previous_;
};

/// The innermost live span of the calling thread, as a
/// context to propagate over the wire. All-zero when no span is live.
struct OutgoingContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};
OutgoingContext outgoing_context();

/// Milliseconds on the steady clock since process start (span timebase).
double steady_now_ms();

/// Records a span for an interval that was measured outside ScopedSpan's
/// RAII reach — e.g. the gateway's admission-queue wait, whose start was
/// stamped by the reactor thread and whose end is observed by the worker
/// that dequeues the request. Allocates a fresh span id, parents the span
/// explicitly under (`trace_id`, `parent_id`), and records into the global
/// registry exactly like a closing ScopedSpan. `start_ms` is in the recorded
/// timebase (caller applies any remote clock offset); `flight_kind` tags the
/// span in flight dumps (e.g. FlightEventKind::kQueue for the gateway's
/// queue-wait spans). No-op returning 0 while both obs::enabled() and
/// obs::flight_recording() are off; otherwise returns the span id.
std::uint64_t record_external_span(
    const char* name, std::uint64_t trace_id, std::uint64_t parent_id,
    double start_ms, double wall_ms, int depth = 0,
    FlightEventKind flight_kind = FlightEventKind::kSpan);

#define CADMC_SPAN_CONCAT2(a, b) a##b
#define CADMC_SPAN_CONCAT(a, b) CADMC_SPAN_CONCAT2(a, b)
/// Anonymous span covering the rest of the enclosing scope.
#define CADMC_SPAN(name) \
  ::cadmc::obs::ScopedSpan CADMC_SPAN_CONCAT(cadmc_span_, __LINE__)(name)

}  // namespace cadmc::obs
