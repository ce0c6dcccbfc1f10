// Shared plumbing for the end-to-end benchmark: options, timing, sample
// statistics, the result record and the span/counter readers the traced runs
// use. Everything here drives CADMC only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setup_reps = 3;    // set-ups per run; setup_s is their median
  std::string inject;    // "", "corrupt" or "shed" (self-test only)
};

/// Linear-interpolated quantile; +inf samples (failed requests) sort last.
/// Returns 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
double sum(const std::vector<double>& xs);

/// Thrown when a run cannot be scored (e.g. the open loop fell behind its
/// schedule); the benchmark then exits without a result.
struct InvalidRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// End-to-end figures are medians over this many consecutive windows of a
/// run, each window summarized on its own: a burst of host contention that
/// covers fewer than half the windows does not move them.
constexpr int kWindows = 5;

/// One measurement window: latency samples (ms; +inf = failed) and the
/// completion times (ms) of correct answers under saturation.
struct Window {
  std::vector<double> latency_ms;
  std::vector<double> done_ms;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// latency_ms_p50, latency_ms_p90 and throughput_fps: each the median over
  /// the windows of the window's own percentile or completion rate. Latency
  /// is capped so a failed (infinite) sample stays JSON.
  void add_windowed(const std::vector<Window>& windows);
};

/// The one-line JSON result printed last on stdout.
std::string to_json(const Result& result);

double peak_rss_mb();

/// Runs `fn` inside a benchmark span named `name` (recorded only while obs
/// collection is on) and returns its wall time in ms.
template <class Fn>
double timed(const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    cadmc::obs::ScopedSpan span(name);
    fn();
  }
  return ms_since(t0);
}

/// Wall times (ms) of the retained spans called `name`.
std::vector<double> span_walls(const std::vector<cadmc::obs::SpanRecord>& spans,
                               std::string_view name);

/// Handler wait (ms): each `parent` span's wall minus its `child` span's wall.
std::vector<double> parent_minus_child(
    const std::vector<cadmc::obs::SpanRecord>& spans, std::string_view parent,
    std::string_view child);

std::int64_t global_counter(const std::string& name);

bool bitwise_equal(const cadmc::tensor::Tensor& a, const cadmc::tensor::Tensor& b);
/// Logits shaped [1, classes] with every value finite.
bool valid_logits(const cadmc::tensor::Tensor& t, int classes);

Result run_edge_frame(const Options& options);
Result run_cloud_conv_suffix(const Options& options);

}  // namespace perfbench
