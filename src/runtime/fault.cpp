#include "runtime/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "runtime/transport.h"

namespace cadmc::runtime {

namespace {
void validate_prob(double p, const char* what) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument(std::string("FaultPlan: ") + what +
                                " outside [0,1]");
}
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      frame_rng_(plan_.seed ^ 0xF4A3E5ULL),
      crash_rng_(plan_.seed ^ 0xC4A54ULL),
      straggler_rng_(plan_.seed ^ 0x57A66ULL) {
  validate_prob(plan_.frame_drop_prob, "frame_drop_prob");
  validate_prob(plan_.frame_corrupt_prob, "frame_corrupt_prob");
  validate_prob(plan_.frame_truncate_prob, "frame_truncate_prob");
  validate_prob(plan_.cloud_crash_prob, "cloud_crash_prob");
  validate_prob(plan_.straggler_prob, "straggler_prob");
  if (plan_.frame_drop_prob + plan_.frame_corrupt_prob +
          plan_.frame_truncate_prob >
      1.0)
    throw std::invalid_argument("FaultPlan: frame fault probs sum > 1");
  if (plan_.outage_rate_per_s < 0.0)
    throw std::invalid_argument("FaultPlan: negative outage rate");
  if (plan_.outage_mean_ms <= 0.0)
    throw std::invalid_argument("FaultPlan: non-positive outage mean");
}

net::BandwidthTrace FaultInjector::degrade_trace(
    const net::BandwidthTrace& trace) const {
  std::vector<double> samples = trace.samples();
  const double dt = trace.dt_ms();
  std::vector<BlackoutWindow> windows = plan_.blackouts;

  // Sample outage starts per trace interval; an interval of dt ms sees a
  // start with probability rate * dt / 1000 (rate is per second).
  if (plan_.outage_rate_per_s > 0.0) {
    util::Rng rng(plan_.seed ^ 0xB1AC0ULL);
    const double p_start =
        std::min(1.0, plan_.outage_rate_per_s * dt / 1000.0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (!rng.bernoulli(p_start)) continue;
      // Exponential duration with mean outage_mean_ms.
      const double u = std::max(rng.uniform(), 1e-12);
      windows.push_back({dt * static_cast<double>(i),
                         -plan_.outage_mean_ms * std::log(u)});
    }
  }

  std::size_t zeroed_windows = 0;
  for (const BlackoutWindow& w : windows) {
    if (w.duration_ms <= 0.0) continue;
    const auto first = static_cast<std::size_t>(
        std::max(0.0, std::floor(w.start_ms / dt)));
    const auto last = static_cast<std::size_t>(
        std::max(0.0, std::ceil((w.start_ms + w.duration_ms) / dt)));
    if (first >= samples.size()) continue;
    ++zeroed_windows;
    for (std::size_t i = first; i < std::min(last, samples.size()); ++i)
      samples[i] = 0.0;
  }
  if (zeroed_windows > 0)
    obs::count("cadmc.runtime.fault.blackout_windows",
               static_cast<std::int64_t>(zeroed_windows));
  return net::BandwidthTrace(dt, std::move(samples));
}

FrameFault FaultInjector::next_frame_fault() {
  if (schedule_pos_ < plan_.frame_schedule.size()) {
    const FrameFault fault = plan_.frame_schedule[schedule_pos_++];
    if (fault != FrameFault::kNone)
      obs::count("cadmc.runtime.fault.scheduled_frame_faults");
    return fault;
  }
  const double u = frame_rng_.uniform();
  if (u < plan_.frame_drop_prob) {
    obs::count("cadmc.runtime.fault.frame_drops");
    return FrameFault::kDrop;
  }
  if (u < plan_.frame_drop_prob + plan_.frame_corrupt_prob) {
    obs::count("cadmc.runtime.fault.frame_corruptions");
    return FrameFault::kCorrupt;
  }
  if (u < plan_.frame_drop_prob + plan_.frame_corrupt_prob +
              plan_.frame_truncate_prob) {
    obs::count("cadmc.runtime.fault.frame_truncations");
    return FrameFault::kTruncate;
  }
  return FrameFault::kNone;
}

bool FaultInjector::next_cloud_crash() {
  const bool crash = crash_rng_.bernoulli(plan_.cloud_crash_prob);
  if (crash) obs::count("cadmc.runtime.fault.cloud_crashes");
  return crash;
}

double FaultInjector::next_straggler_factor() {
  if (!straggler_rng_.bernoulli(plan_.straggler_prob)) return 1.0;
  obs::count("cadmc.runtime.fault.stragglers");
  return std::exp(std::abs(straggler_rng_.normal(0.0, plan_.straggler_sigma)));
}

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config)
    : config_(config) {
  if (config_.failure_threshold < 1)
    throw std::invalid_argument("CircuitBreaker: failure_threshold < 1");
  if (config_.probe_interval < 1)
    throw std::invalid_argument("CircuitBreaker: probe_interval < 1");
}

bool CircuitBreaker::allow_request() {
  if (state_ == State::kClosed) return true;
  // While open, every probe_interval-th request half-opens the breaker.
  ++open_requests_;
  if (open_requests_ % config_.probe_interval == 0) {
    obs::count("cadmc.runtime.fault.breaker_probes");
    return true;
  }
  return false;
}

void CircuitBreaker::record_success() {
  if (state_ == State::kOpen) {
    state_ = State::kClosed;
    open_requests_ = 0;
    obs::count("cadmc.runtime.fault.breaker_closes");
  }
  consecutive_failures_ = 0;
}

void CircuitBreaker::record_failure() {
  ++consecutive_failures_;
  if (state_ == State::kClosed &&
      consecutive_failures_ >= config_.failure_threshold) {
    state_ = State::kOpen;
    open_requests_ = 0;
    obs::count("cadmc.runtime.fault.breaker_opens");
    // A breaker opening is the postmortem moment: flush the flight recorder
    // so the dump holds the spans and faults that led here.
    obs::flight_fault(obs::FlightEventKind::kBreaker, "breaker_open");
  }
}

OffloadRule::OffloadRule(CircuitBreakerConfig breaker, double deadline_ms,
                         bool edge_fallback)
    : breaker_(breaker),
      deadline_ms_(deadline_ms),
      edge_fallback_(edge_fallback) {}

double OffloadRule::offload(bool link_dead,
                            const std::function<double()>& cloud_leg,
                            const std::function<void()>& edge_leg) {
  if (link_dead) obs::count("cadmc.runtime.fault.dead_link_detected");
  double wait_ms = 0.0;
  if (!link_dead && breaker_.allow_request()) {
    if (!cloud_leg) return 0.0;
    double ms = std::numeric_limits<double>::infinity();
    try {
      ms = cloud_leg();
    } catch (const TransportError&) {
      // The call never finished: ms stays infinite, a miss.
    }
    if (std::isfinite(ms) && (deadline_ms_ <= 0.0 || ms <= deadline_ms_)) {
      breaker_.record_success();
      return ms;
    }
    // The miss is only detected when the deadline fires; that wait is the
    // price of the failed attempt.
    breaker_.record_failure();
    ++deadline_misses_;
    obs::count("cadmc.runtime.fault.deadline_misses");
    obs::flight_fault(obs::FlightEventKind::kFault, "deadline_miss");
    wait_ms = deadline_ms_;
  }
  if (edge_fallback_) {
    ++edge_fallbacks_;
    obs::count("cadmc.runtime.fault.edge_fallbacks");
    edge_leg();
  } else {
    ++failures_;
  }
  return wait_ms;
}

}  // namespace cadmc::runtime
