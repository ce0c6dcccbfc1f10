#include "obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
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

FlightRecorder& FlightRecorder::global() {
  return MetricsRegistry::global().ring();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::Slot* FlightRecorder::slots() {
  if (Slot* ready = ready_.load(std::memory_order_acquire)) return ready;
  std::call_once(alloc_once_, [this] {
    slots_ = std::make_unique<Slot[]>(capacity_);
    ready_.store(slots_.get(), std::memory_order_release);
  });
  return slots_.get();
}

void FlightRecorder::record(FlightEventKind kind, const char* name,
                            std::uint64_t trace_id, std::uint64_t span_id,
                            std::uint64_t parent_id, double t_ms,
                            double dur_ms, int depth, double modelled_ms) {
  Slot* const ring = slots();
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring[ticket % capacity_];
  Event event{.kind = kind, .depth = depth, .trace_id = trace_id,
              .span_id = span_id, .parent_id = parent_id, .t_ms = t_ms,
              .dur_ms = dur_ms, .modelled_ms = modelled_ms};
  // At most kNameCapacity - 1 chars: the zeroed last byte stays the end.
  std::strncpy(event.name, name == nullptr ? "?" : name, kNameCapacity - 1);
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

std::vector<FlightRecorder::Event> FlightRecorder::snapshot(
    std::size_t newest) const {
  const Slot* const ring = ready_.load(std::memory_order_acquire);
  if (ring == nullptr) return {};  // nothing recorded yet
  const std::uint64_t start = start_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = std::min<std::uint64_t>(
      {head - start, capacity_, static_cast<std::uint64_t>(newest)});
  std::vector<Event> events;
  events.reserve(count);
  for (std::uint64_t ticket = head - count; ticket < head; ++ticket) {
    const Slot& slot = ring[ticket % capacity_];
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

std::uint64_t FlightRecorder::recorded() const {
  const std::uint64_t start = start_.load(std::memory_order_acquire);
  return head_.load(std::memory_order_relaxed) - start;
}

void FlightRecorder::clear() {
  start_.store(head_.load(std::memory_order_relaxed),
               std::memory_order_release);
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

void MetricsRegistry::count(const std::string& name, std::int64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name].add(n);
}

void MetricsRegistry::set_gauge(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[name].set(v);
}

void MetricsRegistry::observe(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  histograms_[name].observe(v);
}

void MetricsRegistry::record_span(const SpanRecord& span,
                                  FlightEventKind kind) {
  if (enabled()) {
    thread_local std::string key;  // reused: a span allocates no key
    key.assign("cadmc.span.").append(span.name);
    observe(key, span.wall_ms);
  }
  ring_.record(kind, span.name.c_str(), span.trace_id, span.id, span.parent_id,
               span.start_ms, span.wall_ms, span.depth, span.modelled_ms);
}

std::vector<SpanRecord> MetricsRegistry::spans() const {
  std::vector<SpanRecord> out;
  for (const FlightRecorder::Event& e : ring_.snapshot()) {
    if (e.span_id == 0) continue;  // a fault/breaker/shed point event
    out.push_back({e.span_id, e.parent_id, e.trace_id, e.name, e.depth, e.t_ms,
                   e.dur_ms, e.modelled_ms});
  }
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c.value();
  if (const std::uint64_t n = ring_.recorded(); n > ring_.capacity())
    out["cadmc.obs.spans_overwritten"] =
        static_cast<std::int64_t>(n - ring_.capacity());
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
  ring_.clear();
}

void count(std::string_view name, std::int64_t n) {
  if (!enabled()) return;
  MetricsRegistry::global().count(std::string(name), n);
}

void observe(std::string_view name, double v) {
  if (!enabled()) return;
  MetricsRegistry::global().observe(std::string(name), v);
}

void set_gauge(std::string_view name, double v) {
  if (!enabled()) return;
  MetricsRegistry::global().set_gauge(std::string(name), v);
}

}  // namespace cadmc::obs
