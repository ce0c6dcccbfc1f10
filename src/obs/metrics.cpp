#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <span>

#include "util/stats.h"
#include "util/string_util.h"

namespace cadmc::obs {

namespace {
std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;
}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool init_from_env() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("CADMC_METRICS");
    if (env == nullptr) return;
    const std::string v = util::to_lower(env);
    if (v == "1" || v == "true" || v == "on") set_enabled(true);
  });
  return enabled();
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (samples_.size() < kMaxSamples) samples_.push_back(v);
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  if (samples_.size() == 1) {
    // A single observation is the whole distribution (see the
    // HistogramSnapshot contract in metrics.h).
    s.p50 = s.p90 = s.p99 = samples_.front();
  } else if (!samples_.empty()) {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = util::quantile(sorted, 0.50);
    s.p90 = util::quantile(sorted, 0.90);
    s.p99 = util::quantile(sorted, 0.99);
  }
  // count == 0 leaves every quantile at 0.0 by construction — never NaN.
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

void MetricsRegistry::record_span(SpanRecord record) {
  histogram("cadmc.span." + record.name).observe(record.wall_ms);
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> MetricsRegistry::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, std::int64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c.value();
  return out;
}

std::map<std::string, double> MetricsRegistry::gauge_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g.value();
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histogram_values()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h.snapshot();
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  spans_.clear();
  dropped_spans_ = 0;
}

#ifndef CADMC_OBS_DISABLED
void count(std::string_view name, std::int64_t n) {
  if (!enabled()) return;
  MetricsRegistry::global().counter(std::string(name)).add(n);
}

void observe(std::string_view name, double v) {
  if (!enabled()) return;
  MetricsRegistry::global().histogram(std::string(name)).observe(v);
}

void set_gauge(std::string_view name, double v) {
  if (!enabled()) return;
  MetricsRegistry::global().gauge(std::string(name)).set(v);
}
#endif

}  // namespace cadmc::obs
