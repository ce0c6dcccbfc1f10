// Small statistics toolkit: summary statistics, quantiles, exponential moving
// average, and ordinary least squares (used to fit the latency models of
// Sec. V-B and to report R-squared in the Fig. 5 bench).
#pragma once

#include <cstddef>
#include <span>

namespace cadmc::util {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);   // population variance
double stddev(std::span<const double> xs);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]. Precondition: !xs.empty().
double quantile(std::span<const double> xs, double q);

/// Exponential moving average; used as the REINFORCE reward baseline
/// (Sec. VI-D) and as the runtime bandwidth estimator.
class Ema {
 public:
  explicit Ema(double alpha) : alpha_(alpha) {}

  /// Feeds a sample and returns the updated average.
  double update(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
    return value_;
  }

  double value() const { return value_; }
  bool initialized() const { return initialized_; }
  void reset() { initialized_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

/// Result of a simple (one regressor + intercept) least-squares fit.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  // coefficient of determination

  double predict(double x) const { return slope * x + intercept; }
};

/// Fits y = slope * x + intercept by OLS. Precondition: xs.size() == ys.size()
/// and xs.size() >= 2.
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// R^2 of predictions vs observations.
double r_squared(std::span<const double> y_true, std::span<const double> y_pred);

/// Streaming mean/min/max/stddev accumulator. Variance uses Welford's
/// online algorithm: the naive sum-of-squares formula cancels
/// catastrophically for large-mean/small-variance series — exactly the
/// shape of latency samples in ms.
class Accumulator {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace cadmc::util
