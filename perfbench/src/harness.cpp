#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {
// A failed request is an infinite latency sample; JSON has no infinity, so a
// percentile that lands on one is reported as this many ms.
constexpr double kFailedLatencyMs = 1e9;
}  // namespace

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  if (std::isinf(xs[hi])) return xs[hi];
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

void Result::add_windowed(const std::vector<Window>& windows) {
  std::vector<double> p50, p90, rate;
  for (const Window& w : windows) {
    p50.push_back(quantile(w.latency_ms, 0.50));
    p90.push_back(quantile(w.latency_ms, 0.90));
    // (completions - 1) / (last - first completion): no count quantization.
    if (w.done_ms.size() >= 2)
      rate.push_back(1000.0 * static_cast<double>(w.done_ms.size() - 1) /
                     (w.done_ms.back() - w.done_ms.front()));
  }
  add("latency_ms_p50", std::min(quantile(p50, 0.5), kFailedLatencyMs), "ms");
  add("latency_ms_p90", std::min(quantile(p90, 0.5), kFailedLatencyMs), "ms");
  add("throughput_fps", quantile(rate, 0.5), "1/s");
}

std::string to_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> span_walls(const std::vector<cadmc::obs::SpanRecord>& spans,
                               std::string_view name) {
  std::vector<double> walls;
  for (const auto& s : spans)
    if (s.name == name) walls.push_back(s.wall_ms);
  return walls;
}

std::vector<double> parent_minus_child(
    const std::vector<cadmc::obs::SpanRecord>& spans, std::string_view parent,
    std::string_view child) {
  std::unordered_map<std::uint64_t, double> parent_wall;
  for (const auto& s : spans)
    if (s.name == parent) parent_wall[s.id] = s.wall_ms;
  std::vector<double> waits;
  for (const auto& s : spans) {
    if (s.name != child) continue;
    const auto it = parent_wall.find(s.parent_id);
    if (it != parent_wall.end()) waits.push_back(it->second - s.wall_ms);
  }
  return waits;
}

std::int64_t global_counter(const std::string& name) {
  return cadmc::obs::MetricsRegistry::global().counter(name).value();
}

bool bitwise_equal(const cadmc::tensor::Tensor& a, const cadmc::tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

bool valid_logits(const cadmc::tensor::Tensor& t, int classes) {
  if (t.rank() != 2 || t.dim(0) != 1 || t.dim(1) != classes) return false;
  return std::all_of(t.data().begin(), t.data().end(),
                     [](float v) { return std::isfinite(v); });
}

}  // namespace perfbench
