// Metrics registry — named counters, gauges and histograms for the whole
// stack (metric naming scheme: "cadmc.<area>.<name>"). Every producer
// records into the one process-wide registry, MetricsRegistry::global(), so
// all spans of a frame share one causal tree. A standalone MetricsRegistry
// is only ever a reader's input (exporters, reports, tests).
//
// Cost model: every instrumentation site is gated by the runtime flag
// `obs::enabled()` (one relaxed atomic load when off) and the whole layer can
// be compiled out with -DCADMC_OBS_DISABLED, so the Table I/IV latency
// numbers are unaffected by the disabled path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
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

/// Thread-safe named-metric registry. Metric objects are created on first
/// use; a returned reference stays valid until reset() or the registry's
/// destruction, whichever comes first.
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

  /// Appends a closed span and folds its wall duration into the
  /// "cadmc.span.<name>" histogram. Retention is capped at kMaxSpans.
  static constexpr std::size_t kMaxSpans = 100'000;
  void record_span(SpanRecord record);

  std::vector<SpanRecord> spans() const;
  std::map<std::string, std::int64_t> counter_values() const;
  std::map<std::string, double> gauge_values() const;
  std::map<std::string, HistogramSnapshot> histogram_values() const;

  /// Drops every metric and retained span. Erases the metric objects, so
  /// every reference counter()/gauge()/histogram() returned dangles.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<SpanRecord> spans_;
  std::size_t dropped_spans_ = 0;
};

#ifndef CADMC_OBS_DISABLED
/// The producers' recording calls: they write the global registry while
/// obs::enabled() and are no-ops otherwise. The name is copied into a
/// std::string only when the call records, so a disabled call allocates
/// nothing.
void count(std::string_view name, std::int64_t n = 1);
void observe(std::string_view name, double v);
void set_gauge(std::string_view name, double v);
#else
inline void count(std::string_view, std::int64_t = 1) {}
inline void observe(std::string_view, double) {}
inline void set_gauge(std::string_view, double) {}
#endif

}  // namespace cadmc::obs
