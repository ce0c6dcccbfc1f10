// Fault model for the edge-cloud runtime. The paper's field tests
// (Sec. VII-B3) show the emulation-vs-field gap comes from reality
// misbehaving: links fade to nothing, packets die in flight, the cloud peer
// disappears, and compute occasionally straggles. This header gives the
// runtime a deterministic, seeded vocabulary for those events:
//
//  * FaultPlan / FaultInjector — declarative fault schedule. Link blackouts
//    are spliced into a BandwidthTrace as zero-bandwidth windows (the rest of
//    the stack already prices transfers off the trace, so a blackout is just
//    a trace the transfer integral cannot cross). Frame drops/corruption/
//    truncation are decided per transport frame, cloud crashes per call, and
//    compute stragglers as lognormal multipliers per block.
//  * CircuitBreaker — consecutive-failure breaker with periodic half-open
//    probes.
//  * OffloadRule — the one rule that decides and books every frame's cloud
//    leg, for InferenceRunner, FieldSession and DecisionEngine alike.
//
// Every decision consumes an independent deterministic RNG stream, so a
// fault schedule is reproducible bit-for-bit for a given seed. All events
// are counted under cadmc.runtime.fault.* while obs::enabled().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/trace.h"
#include "util/rng.h"

namespace cadmc::runtime {

/// A link outage: bandwidth is zero for [start_ms, start_ms + duration_ms).
struct BlackoutWindow {
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

/// Per-frame transport fault (at most one per frame).
enum class FrameFault { kNone, kDrop, kCorrupt, kTruncate };

struct FaultPlan {
  // Link faults: explicit windows plus randomly sampled outages at
  // `outage_rate_per_s` starts/second with exponential durations of mean
  // `outage_mean_ms`.
  std::vector<BlackoutWindow> blackouts;
  double outage_rate_per_s = 0.0;
  double outage_mean_ms = 800.0;

  // Transport-frame faults. The explicit schedule is consumed first (one
  // entry per frame, in order — exact scripting for tests); once exhausted,
  // faults are drawn per frame from the probabilities below.
  std::vector<FrameFault> frame_schedule;
  double frame_drop_prob = 0.0;
  double frame_corrupt_prob = 0.0;
  double frame_truncate_prob = 0.0;

  // Cloud-process crash probability per call (the peer dies and must be
  // restarted by the harness).
  double cloud_crash_prob = 0.0;

  // Compute stragglers: with `straggler_prob` a block's compute is inflated
  // by exp(|N(0, straggler_sigma)|) (lognormal tail, always >= 1).
  double straggler_prob = 0.0;
  double straggler_sigma = 0.6;

  std::uint64_t seed = 0xFA017;
};

/// Draws fault decisions from a FaultPlan. Each fault family consumes its
/// own RNG stream so, e.g., adding frame faults does not shift the blackout
/// schedule.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Returns `trace` with the plan's blackout windows (explicit + sampled)
  /// zeroed out. Deterministic for a given plan; does not consume the
  /// per-frame/per-call streams.
  net::BandwidthTrace degrade_trace(const net::BandwidthTrace& trace) const;

  /// Fault decision for the next transport frame.
  FrameFault next_frame_fault();

  /// True if the cloud process crashes before serving the next call.
  bool next_cloud_crash();

  /// Multiplicative compute inflation for the next block (>= 1.0).
  double next_straggler_factor();

 private:
  FaultPlan plan_;
  std::size_t schedule_pos_ = 0;
  util::Rng frame_rng_;
  util::Rng crash_rng_;
  util::Rng straggler_rng_;
};

struct CircuitBreakerConfig {
  int failure_threshold = 3;  // consecutive failures that open the breaker
  int probe_interval = 4;     // while open, 1 of every N requests half-opens
};

/// Consecutive-failure circuit breaker. Closed: every request goes to the
/// cloud. After `failure_threshold` consecutive failures it opens: requests
/// are answered locally except a periodic probe (every `probe_interval`-th
/// request) that is allowed through so a recovered cloud can close the
/// breaker again. Transitions are counted under cadmc.runtime.fault.*.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen };

  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  /// Should this request try the cloud? Always true while closed; while open
  /// true only for the periodic probe.
  bool allow_request();
  void record_success();
  void record_failure();

  State state() const { return state_; }
  int consecutive_failures() const { return consecutive_failures_; }

 private:
  CircuitBreakerConfig config_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int open_requests_ = 0;  // requests seen since the breaker opened
};

/// The offload-or-fall-back rule of one long-lived session; it owns the
/// session's breaker and tallies. For a frame whose strategy offloads:
///  * the cloud leg is tried only when the link is not known to be dead and
///    the breaker allows it;
///  * a leg that cannot finish — a non-finite time, a time past a positive
///    deadline, or a TransportError — is a miss: the breaker records a
///    failure, cadmc.runtime.fault.deadline_misses and the flight event
///    `deadline_miss` are booked, and the frame waits out the deadline. A
///    leg that finishes records a breaker success;
///  * a skipped or missed leg runs `edge_leg`, the uncompressed suffix on
///    the edge (counted under edge_fallbacks), or, with fallback disabled,
///    the frame fails.
class OffloadRule {
 public:
  explicit OffloadRule(CircuitBreakerConfig breaker = {},
                       double deadline_ms = 0.0, bool edge_fallback = true);

  /// Decides and books one frame's cloud leg. `cloud_leg` runs the leg and
  /// returns its time (ms). An empty `cloud_leg` only decides: the caller
  /// runs no leg, and whoever owns the transport books it on breaker().
  /// Returns the frame's wait on the cloud leg: the leg's time when served,
  /// the deadline when missed, 0 when skipped.
  double offload(bool link_dead, const std::function<double()>& cloud_leg,
                 const std::function<void()>& edge_leg);

  CircuitBreaker& breaker() { return breaker_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  int deadline_misses() const { return deadline_misses_; }
  int edge_fallbacks() const { return edge_fallbacks_; }
  int failures() const { return failures_; }

 private:
  CircuitBreaker breaker_;
  double deadline_ms_;
  bool edge_fallback_;
  int deadline_misses_ = 0, edge_fallbacks_ = 0, failures_ = 0;
};

}  // namespace cadmc::runtime
