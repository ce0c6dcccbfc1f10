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
// * FlightRecorder: a fixed-capacity, lock-free (per-slot seqlock) ring
//   buffer of the most recent spans and fault/breaker events. It is always
//   on in field mode and costs one relaxed atomic increment plus a bounded
//   memcpy per event; when something goes wrong (TransportError, deadline
//   miss, circuit-breaker open) the last N events are dumped to JSONL for
//   postmortems — the black box the aggregate fault counters cannot be.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
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
std::string to_chrome_trace(const MetricsRegistry& registry);

/// Writes to_chrome_trace() to `path`; returns false on I/O failure.
bool export_chrome_trace(const MetricsRegistry& registry,
                         const std::string& path);

// ---------------------------------------------------------------------------
// Flight recorder.

enum class FlightEventKind { kSpan, kFault, kBreaker, kQueue };

/// Runtime switch for flight recording (independent of obs::enabled() —
/// field mode turns it on unconditionally). Off by default.
void set_flight_recording(bool on);
bool flight_recording();

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::size_t kNameCapacity = 48;

  struct Event {
    FlightEventKind kind = FlightEventKind::kSpan;
    char name[kNameCapacity] = {};
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    double t_ms = 0.0;    // span start / event time, steady ms
    double dur_ms = 0.0;  // span wall time; 0 for point events
  };

  /// Process-wide default instance (the one the runtime hooks feed).
  static FlightRecorder& global();

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Lock-free: a relaxed ticket fetch_add plus a seqlock-guarded slot
  /// write. Safe to call from any thread, including while another thread
  /// snapshots; a reader skips slots it catches mid-write.
  void record(FlightEventKind kind, const char* name, std::uint64_t trace_id,
              std::uint64_t span_id, std::uint64_t parent_id, double t_ms,
              double dur_ms);
  void record_span(const SpanRecord& span);

  /// The retained events, oldest first. Torn slots (overwritten while being
  /// copied) are dropped rather than returned corrupt.
  std::vector<Event> snapshot() const;

  /// Writes a JSONL dump: one header line ({"type":"flight_dump", ...})
  /// followed by one line per event. Returns false on I/O failure.
  bool dump_jsonl(const std::string& path, const std::string& reason) const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  void clear();

 private:
  // Event payloads are staged through word-sized atomics (relaxed loads and
  // stores bracketed by the seqlock fences) rather than a plain struct copy:
  // a plain copy racing a writer is undefined behaviour in the C++ memory
  // model even though the seqlock discards the torn value, and TSan rightly
  // flags it. Relaxed word accesses compile to the same machine code.
  static constexpr std::size_t kSlotWords = (sizeof(Event) + 7) / 8;
  static_assert(std::is_trivially_copyable_v<Event>);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 2*ticket+1 while writing, +2 done
    std::atomic<std::uint64_t> words[kSlotWords] = {};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Destination for automatic dumps. Defaults to "cadmc_flight.jsonl" in the
/// working directory; the CADMC_FLIGHT_DUMP environment variable overrides
/// the default the first time it is consulted.
void set_flight_dump_path(const std::string& path);
std::string flight_dump_path();

/// Records a fault/breaker event into the global recorder (no-op while
/// flight recording is off). The current thread's innermost span, if any,
/// provides the trace linkage.
void flight_event(FlightEventKind kind, const char* name);

/// flight_event + dump of the whole ring to flight_dump_path(). Dumps are
/// rate-limited (at most one per 250 ms) so a failure storm cannot turn the
/// hot path into file I/O. Counted under cadmc.obs.flight_dumps.
void flight_fault(FlightEventKind kind, const char* name);

}  // namespace cadmc::obs
