// Bandwidth traces: a fixed-interval time series of bandwidth samples, the
// substrate for Fig. 1 ("real-world network context"), the emulation runs of
// Table IV, and the trace shaper of the field tests (Table V,
// runtime::shaped_transfer_ms).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cadmc::net {

class BandwidthTrace {
 public:
  BandwidthTrace() = default;
  /// `samples` are bandwidths in bytes/ms at multiples of `dt_ms`. A zero
  /// sample is a link blackout (the fault layer splices these in); negative
  /// samples are rejected.
  BandwidthTrace(double dt_ms, std::vector<double> samples);

  double dt_ms() const { return dt_ms_; }
  std::size_t sample_count() const { return samples_.size(); }
  double duration_ms() const {
    return dt_ms_ * static_cast<double>(samples_.size());
  }
  const std::vector<double>& samples() const { return samples_; }

  /// Bandwidth at time t (zero-order hold; clamps to the trace ends).
  double at(double t_ms) const;

  /// Bandwidth quantile over the whole trace. The paper classifies network
  /// state into K = 2 conditions using the lower and upper quartiles.
  double quantile(double q) const;
  double mean() const;

  /// 'good'/'poor' classification threshold = median by default.
  /// Returns the fork index in [0, k) for a bandwidth value given the trace's
  /// k-quantile thresholds (k-1 internal quantiles split the range evenly).
  int classify(double bandwidth, int k) const;

  bool save_csv(const std::string& path) const;
  /// Throws std::runtime_error on missing/malformed file.
  static BandwidthTrace load_csv(const std::string& path);

 private:
  double dt_ms_ = 100.0;
  std::vector<double> samples_;
};

}  // namespace cadmc::net
