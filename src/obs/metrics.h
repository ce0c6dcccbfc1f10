// Metrics registry — named counters, gauges and histograms for the whole
// stack (metric naming scheme: "cadmc.<area>.<name>"), plus the one span
// store: a lock-free ring that keeps the newest kMaxSpans spans. Every
// producer records into the one process-wide registry,
// MetricsRegistry::global(), so all spans of a frame share one causal tree;
// FlightRecorder::global() is that registry's ring. A standalone
// MetricsRegistry is only ever a reader's input (exporters, reports, tests).
//
// Cost model: every instrumentation site is gated by the runtime flag
// `obs::enabled()` (one relaxed atomic load when off), so the Table I/IV
// latency numbers are unaffected by the disabled path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cadmc::obs {

/// Runtime switch. Defaults to off so benches/tests pay nothing unless they
/// opt in.
void set_enabled(bool on);
bool enabled();

/// Reads CADMC_METRICS from the environment once ("1"/"true"/"on" enables
/// collection); later calls are no-ops. Returns the resulting enabled state.
bool init_from_env();

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time view of a histogram, with quantiles precomputed via
/// util::quantile over the retained samples.
///
/// Degenerate-count contract (pinned by Histogram.QuantileEdges):
///  * count == 0 — p50/p90/p99 (and min/max/sum) are all 0.0, never NaN:
///    exporters print these fields verbatim and bare `nan` is not valid
///    JSON. `count` is the emptiness signal; consumers must check it before
///    reading the quantiles.
///  * count == 1 — every quantile equals the single observation (the sample
///    is the whole distribution; no interpolation happens).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Count/sum/min/max over every observation. p50/p90/p99 are interpolated
/// from the first kMaxSamples observations only: later ones move count,
/// sum, min and max but never the quantiles.
class Histogram {
 public:
  static constexpr std::size_t kMaxSamples = 8192;

  void observe(double v);
  HistogramSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One closed tracing span (see obs/span.h for the RAII producer).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  // 0 = no parent
  std::uint64_t trace_id = 0;   // causal tree this span belongs to
  std::string name;
  int depth = 0;
  double start_ms = 0.0;     // ms since process start, shifted into the
                             // trace root's timebase for remote spans
  double wall_ms = 0.0;      // measured wall-clock duration
  double modelled_ms = -1.0; // analytic-model duration; < 0 when unset
};

enum class FlightEventKind { kSpan, kFault, kBreaker, kQueue };

/// Fixed-capacity, lock-free (per-slot seqlock) ring that keeps the newest
/// spans and fault/breaker/shed point events, overwriting the oldest. The
/// first record allocates the slots, so recording nothing costs no memory.
class FlightRecorder {
 public:
  static constexpr std::size_t kNameCapacity = 48;  // names keep 47 chars
  static constexpr std::size_t kDumpEvents = 1024;

  struct Event {
    FlightEventKind kind = FlightEventKind::kSpan;
    int depth = 0;
    char name[kNameCapacity] = {};
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;    // 0 for point events
    std::uint64_t parent_id = 0;
    double t_ms = 0.0;            // span start / event time, steady ms
    double dur_ms = 0.0;          // span wall time; 0 for point events
    double modelled_ms = -1.0;    // analytic-model duration; < 0 when unset
  };

  /// The global registry's ring (the one the runtime hooks feed).
  static FlightRecorder& global();

  explicit FlightRecorder(std::size_t capacity);

  /// Lock-free past the first record: a relaxed ticket fetch_add plus a
  /// seqlock-guarded slot write. Safe to call from any thread, including
  /// while another thread snapshots; a reader skips torn slots.
  void record(FlightEventKind kind, const char* name, std::uint64_t trace_id,
              std::uint64_t span_id, std::uint64_t parent_id, double t_ms,
              double dur_ms, int depth = 0, double modelled_ms = -1.0);

  /// The newest `newest` retained events (all of them by default), oldest
  /// first. Torn slots (overwritten while being copied) are dropped rather
  /// than returned corrupt.
  std::vector<Event> snapshot(std::size_t newest = SIZE_MAX) const;

  /// Writes a JSONL dump: one header line ({"type":"flight_dump", ...})
  /// followed by one line per event, the newest kDumpEvents at most.
  /// Returns false on I/O failure.
  bool dump_jsonl(const std::string& path, const std::string& reason) const;

  std::size_t capacity() const { return capacity_; }
  /// Events recorded since construction or the last clear().
  std::uint64_t recorded() const;
  /// Empties the ring by moving the start ticket to the head: it never
  /// writes a slot that a concurrent writer may own.
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

  Slot* slots();  // allocates on first use

  std::size_t capacity_;
  std::once_flag alloc_once_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<Slot*> ready_{nullptr};  // slots_, once allocated
  std::atomic<std::uint64_t> head_{0};   // next ticket
  std::atomic<std::uint64_t> start_{0};  // first ticket since clear()
};

/// Thread-safe named-metric registry and span store. Metric objects are
/// created on first use; a returned reference stays valid until reset() or
/// the registry's destruction, whichever comes first.
class MetricsRegistry {
 public:
  /// Process-wide default instance.
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Look up (creating on first use) and update in one critical section on
  /// the registry mutex, so a concurrent reset() cannot erase the metric
  /// between the lookup and the write. The producers' recording calls and
  /// the span-histogram fold go through these, never through a reference.
  void count(const std::string& name, std::int64_t n);
  void set_gauge(const std::string& name, double v);
  void observe(const std::string& name, double v);

  /// Writes a closed span into the ring, tagged `kind` for flight dumps,
  /// and, while obs::enabled(), folds its wall duration into the
  /// "cadmc.span.<name>" histogram. The ring keeps the newest kMaxSpans.
  static constexpr std::size_t kMaxSpans = 100'000;
  void record_span(const SpanRecord& span,
                   FlightEventKind kind = FlightEventKind::kSpan);

  /// Every span in the ring, in record order, whether obs::enabled() or
  /// obs::flight_recording() recorded it; no point event (span id 0).
  std::vector<SpanRecord> spans() const;
  /// The counters, plus "cadmc.obs.spans_overwritten" (ring events lost to
  /// overwrites since reset()) once it is non-zero, so every exporter
  /// prints it with no code of its own.
  std::map<std::string, std::int64_t> counter_values() const;
  std::map<std::string, double> gauge_values() const;
  std::map<std::string, HistogramSnapshot> histogram_values() const;

  FlightRecorder& ring() { return ring_; }

  /// Drops every metric and empties the ring, point events included.
  /// Erases the metric objects, so every reference counter()/gauge()/
  /// histogram() returned dangles.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  FlightRecorder ring_{kMaxSpans};
};

/// The producers' recording calls: they write the global registry while
/// obs::enabled() and are no-ops otherwise. The name is copied into a
/// std::string only when the call records, so a disabled call allocates
/// nothing.
void count(std::string_view name, std::int64_t n = 1);
void observe(std::string_view name, double v);
void set_gauge(std::string_view name, double v);

}  // namespace cadmc::obs
