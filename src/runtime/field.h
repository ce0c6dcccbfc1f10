// Field session: end-to-end inference with *real* tensors over a *real*
// loopback TCP socket, paced by a bandwidth trace. The compute/transfer
// latencies reported are virtual (modelled device + shaped trace time) while
// the data path is genuine: edge forward pass -> encode features -> socket
// -> cloud forward pass -> logits back. Used by the field-demo example and
// integration tests to prove the composed models the engine ships actually
// run and agree with local execution.
//
// Fault tolerance (Sec. VII-B3: the field is where the link misbehaves):
// cloud calls run under a deadline with bounded retry, and the shared
// OffloadRule (fault.h) books each call: its circuit breaker counts
// consecutive cloud failures and, once open, answers inferences by running
// the model suffix locally on the edge device (the uncompressed suffix is
// exactly the all-edge fork the model tree keeps for dead links), letting a
// periodic probe close the breaker when the cloud returns. A FaultInjector
// can kill the cloud process or perturb transport frames.
#pragma once

#include <memory>

#include "engine/strategy.h"
#include "net/trace.h"
#include "runtime/executor.h"
#include "runtime/fault.h"
#include "runtime/shaper.h"

namespace cadmc::runtime {

struct FieldOutcome {
  tensor::Tensor logits;
  double edge_ms = 0.0;      // modelled edge compute
  double transfer_ms = 0.0;  // shaped transfer (virtual)
  double cloud_ms = 0.0;     // modelled cloud (or local-fallback) compute
  bool degraded = false;     // served by the edge-only fallback path
  double total_ms() const { return edge_ms + transfer_ms + cloud_ms; }
};

/// Fault-tolerance knobs for a FieldSession. Defaults reproduce the legacy
/// behaviour (no deadline, never degrade) except that a dead link (infinite
/// shaped transfer) always falls back instead of hanging.
struct FieldFaultConfig {
  double cloud_deadline_ms = 0.0;  // socket deadline per call; 0 = blocking
  int max_retries = 1;             // transport-level retries per call
  double backoff_ms = 5.0;
  CircuitBreakerConfig breaker;
  FaultInjector* injector = nullptr;        // optional chaos (not owned)
  obs::MetricsRegistry* metrics = nullptr;  // null = global registry

  // Multi-session mode: instead of owning a private CloudExecutor, the
  // session offloads to this shared one — N sessions then share one gateway
  // and one immutable model. Not owned; must outlive the session.
  // session_id must be unique per session and non-zero for
  // duplicate-detection and per-session state to apply.
  CloudExecutor* shared_cloud = nullptr;
  std::uint64_t session_id = 0;
};

class FieldSession {
 public:
  /// Takes a weight-faithful realized strategy. Throws std::invalid_argument
  /// when `faults.shared_cloud` serves anything but its cloud suffix (same
  /// signature(), bitwise-equal weights). `time_scale` compresses real
  /// sleeping (0 disables pacing entirely — transfer time is still computed,
  /// just not slept).
  FieldSession(engine::RealizedStrategy realized,
               latency::ComputeLatencyModel edge_device,
               latency::ComputeLatencyModel cloud_device,
               net::BandwidthTrace trace, double rtt_ms,
               double time_scale = 0.0, FieldFaultConfig faults = {});
  ~FieldSession();

  /// Runs one inference starting at virtual time `t_virtual_ms`. Never
  /// hangs or throws on cloud failure: if the cloud is unreachable (deadline
  /// misses, crash, open breaker, dead link) the suffix runs locally and the
  /// outcome is marked `degraded`.
  FieldOutcome infer(const tensor::Tensor& input, double t_virtual_ms);

  bool offloads() const { return cut_ < model_.size(); }

  /// Simulates a cloud-process crash: the executor stops serving and
  /// in-flight/future calls fail until restart_cloud(). In shared-cloud
  /// mode this stops the shared gateway — every session riding it degrades,
  /// which is exactly what a cloud-process death looks like.
  void kill_cloud();
  /// Restarts the cloud executor (port-stable when possible) and reconnects
  /// the client. The breaker stays open until a probe call succeeds.
  void restart_cloud();

  CircuitBreaker::State breaker_state() const {
    return rule_.breaker().state();
  }

 private:
  obs::MetricsRegistry& metrics() const;
  TcpClientConfig client_config() const;
  /// The executor this session's cloud half lives on (shared or owned).
  CloudExecutor* executor() const;

  // Layers [0, cut_) run on the edge; [cut_, end) is the uncompressed
  // suffix the cloud serves, which the edge also runs as the fallback.
  nn::Model model_;
  std::size_t cut_;
  latency::ComputeLatencyModel edge_device_;
  net::BandwidthTrace trace_;
  double rtt_ms_, time_scale_;
  FieldFaultConfig faults_;
  OffloadRule rule_;
  std::unique_ptr<CloudExecutor> cloud_;
  TcpClient client_;
  bool cloud_up_ = false;
};

}  // namespace cadmc::runtime
