// Reward function of Eqn. (7): R = N1(A) + N2(T) with the normalization of
// Sec. VII — accuracy mapped from [50%, 100%] onto [0, 100] reward points
// and latency mapped from [500ms, 0ms] onto [0, 300] points, total scale 400.
#pragma once

#include <algorithm>

namespace cadmc::engine {

inline constexpr double kRewardAccMin = 0.50;      // minimal accuracy
inline constexpr double kRewardAccMax = 1.00;      // maximal accuracy
inline constexpr double kRewardLatMinMs = 0.0;     // minimal latency
inline constexpr double kRewardLatMaxMs = 500.0;   // maximal latency
inline constexpr double kRewardAccWeight = 100.0;  // accuracy share of R
inline constexpr double kRewardLatWeight = 300.0;  // latency share of R

/// N1: higher accuracy -> higher reward, clamped to [0, kRewardAccWeight].
inline double accuracy_reward(double accuracy) {
  const double n = (accuracy - kRewardAccMin) / (kRewardAccMax - kRewardAccMin);
  return kRewardAccWeight * std::clamp(n, 0.0, 1.0);
}

/// N2: lower latency -> higher reward, clamped to [0, kRewardLatWeight].
inline double latency_reward(double latency_ms) {
  const double n =
      (kRewardLatMaxMs - latency_ms) / (kRewardLatMaxMs - kRewardLatMinMs);
  return kRewardLatWeight * std::clamp(n, 0.0, 1.0);
}

/// Eqn. (7).
inline double reward(double accuracy, double latency_ms) {
  return accuracy_reward(accuracy) + latency_reward(latency_ms);
}

}  // namespace cadmc::engine
