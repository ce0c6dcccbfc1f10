// Field session: end-to-end inference with *real* tensors over a *real*
// loopback TCP socket, paced by a bandwidth trace. The compute/transfer
// latencies reported are virtual (modelled device + shaped trace time) while
// the data path is genuine: edge forward pass -> encode features -> socket
// -> cloud forward pass -> logits back. Used by the field-demo example and
// integration tests to prove the composed models the engine ships actually
// run and agree with local execution.
//
// A session holds only its realized edge prefix. Its cloud half lives on a
// CloudExecutor the caller owns, which any number of sessions may share:
// they all read that executor's one immutable suffix, the gateway workers
// included, so N sessions keep one copy of the suffix weights, not N + 1.
//
// Fault tolerance (Sec. VII-B3: the field is where the link misbehaves):
// cloud calls run under a deadline with bounded retry, and the shared
// OffloadRule (fault.h) books each call: its circuit breaker counts
// consecutive cloud failures and, once open, answers inferences by running
// the executor's suffix locally, at edge-device prices (the uncompressed
// suffix is exactly the all-edge fork the model tree keeps for dead links),
// letting a periodic probe close the breaker when the cloud returns. A
// FaultInjector can kill the cloud process or perturb transport frames.
#pragma once

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
  // Unique and non-zero per session on a shared executor, for the gateway's
  // duplicate detection and per-session state to apply.
  std::uint64_t session_id = 0;
};

class FieldSession {
 public:
  /// Takes a weight-faithful realized strategy and keeps its edge prefix
  /// [0, cut). `cloud` (not owned; must outlive the session) serves the
  /// suffix: it is required exactly when the strategy offloads, is started
  /// if it is not running, and must serve the realized suffix itself (same
  /// signature(), bitwise-equal weights); otherwise the constructor throws
  /// std::invalid_argument. `time_scale` compresses real sleeping (0
  /// disables pacing entirely — transfer time is still computed, just not
  /// slept).
  FieldSession(const engine::RealizedStrategy& realized, CloudExecutor* cloud,
               latency::ComputeLatencyModel edge_device,
               net::BandwidthTrace trace, double rtt_ms,
               double time_scale = 0.0, FieldFaultConfig faults = {});

  /// Runs one inference starting at virtual time `t_virtual_ms`. Never
  /// hangs or throws on cloud failure: if the cloud is unreachable (deadline
  /// misses, crash, open breaker, dead link) the suffix runs locally and the
  /// outcome is marked `degraded`.
  FieldOutcome infer(const tensor::Tensor& input, double t_virtual_ms);

  bool offloads() const { return cloud_ != nullptr; }

  /// Simulates a cloud-process crash: the executor stops serving and
  /// in-flight/future calls fail until restart_cloud(). Every session
  /// riding the executor degrades, which is exactly what a cloud-process
  /// death looks like.
  void kill_cloud();
  /// Restarts the cloud executor (port-stable when possible) and reconnects
  /// the client. The breaker stays open until a probe call succeeds.
  void restart_cloud();

  CircuitBreaker::State breaker_state() const {
    return rule_.breaker().state();
  }

 private:
  obs::MetricsRegistry& metrics() const;
  /// Connects the client to `cloud_`, starting it if it is not running.
  void connect();

  // The realized layers [0, cut) that run on the edge. The suffix is
  // cloud_->model(): the gateway serves it and the fallback runs it here.
  nn::Model prefix_;
  CloudExecutor* cloud_;  // null when the strategy stays on the edge
  latency::ComputeLatencyModel edge_device_;
  net::BandwidthTrace trace_;
  double rtt_ms_, time_scale_;
  FieldFaultConfig faults_;
  OffloadRule rule_;
  TcpClient client_;
  bool cloud_up_ = false;
};

}  // namespace cadmc::runtime
