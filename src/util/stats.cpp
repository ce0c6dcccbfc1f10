#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace cadmc::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_of(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  assert(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  assert(!xs.empty());
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size() && xs.size() >= 2);
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
  }
  LinearFit fit;
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  std::vector<double> pred(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) pred[i] = fit.predict(xs[i]);
  fit.r2 = r_squared(ys, pred);
  return fit;
}

double r_squared(std::span<const double> y_true,
                 std::span<const double> y_pred) {
  assert(y_true.size() == y_pred.size() && !y_true.empty());
  const double my = mean(y_true);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    ss_res += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
    ss_tot += (y_true[i] - my) * (y_true[i] - my);
  }
  if (ss_tot <= 0.0) return ss_res <= 1e-30 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  // Welford update: m2_ accumulates squared deviations without ever forming
  // sum(x^2), which loses all precision when mean^2 >> variance.
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::stddev() const {
  if (n_ == 0) return 0.0;
  const double v = m2_ / static_cast<double>(n_);  // population variance
  return v > 0.0 ? std::sqrt(v) : 0.0;
}

}  // namespace cadmc::util
