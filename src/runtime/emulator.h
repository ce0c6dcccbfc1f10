// Emulation and field-test harness (Tables IV and V). An InferenceRunner
// replays DNN inferences along a bandwidth trace under one of three
// policies — Dynamic DNN Surgery, the optimal-branch model, or the
// context-aware model tree — and in one of two timing modes:
//  * kEstimated (Table IV): decisions use the runtime bandwidth estimate and
//    outcomes are priced by the latency models at the true trace value at
//    the moment of transfer ("real-world traces + estimated latencies");
//  * kField (Table V): outcomes additionally pay for reality — per-block
//    device-compute noise and a transfer that integrates the true trace
//    across the whole transmission (shaped_transfer_ms), so mid-transfer
//    fades land on the bill. The decision inputs stay estimated/stale —
//    this gap is exactly the paper's emulation-vs-field gap.
#pragma once

#include <functional>

#include "engine/strategy.h"
#include "net/estimator.h"
#include "net/scenes.h"
#include "partition/surgery.h"
#include "runtime/fault.h"
#include "tree/model_tree.h"

namespace cadmc::runtime {

enum class TimingMode { kEstimated, kField };

// Online bandwidth estimation, shared by InferenceRunner and
// DecisionEngine::infer: the estimator reads the trace this stale and
// smooths it with this EWMA weight.
inline constexpr double kEstimatorStalenessMs = 200.0;
inline constexpr double kEstimatorAlpha = 0.6;
// Field timing (kField) adds reality on top: a lognormal sigma on block
// compute and extra estimate staleness.
inline constexpr double kFieldComputeNoise = 0.10;
inline constexpr double kFieldStalenessExtraMs = 300.0;
// An estimate at/below this (bytes/ms; the estimator floor) means the link
// is effectively dead: DecisionEngine::infer then takes the all-edge fork.
inline constexpr double kDeadLinkBandwidth =
    net::BandwidthEstimator::kMinBandwidth;

struct RunStats {
  double mean_latency_ms = 0.0;
  double mean_accuracy = 0.0;
  double mean_reward = 0.0;
  int inferences = 0;
  // Fault accounting (all zero while every cloud leg finishes in time).
  double p99_latency_ms = 0.0;
  int deadline_misses = 0;   // cloud path abandoned at the deadline
  int edge_fallbacks = 0;    // inferences served by the local suffix
  int failures = 0;          // unserved inferences (fallback disabled)
  double availability = 1.0; // served / total
};

struct RunnerConfig {
  TimingMode mode = TimingMode::kEstimated;
  int inferences = 40;              // runs spread along the trace
  std::uint64_t seed = 0xF1E1D;
  // Fault tolerance (OffloadRule). A positive deadline bounds the cloud leg
  // (transfer + cloud compute) of each inference; a leg past it, or one
  // that never finishes (a blackout), is a miss: it costs the deadline
  // wait, trips the breaker, and — when `edge_fallback` — the uncompressed
  // suffix runs on the edge instead (the model-tree all-edge fork). With
  // fallback disabled a miss is a failed inference and availability drops.
  double cloud_deadline_ms = 0.0;   // 0 = no deadline
  bool edge_fallback = true;
  // Optional chaos source (not owned): compute stragglers inflate block
  // latency on top of the field-mode lognormal noise.
  FaultInjector* injector = nullptr;
};

class InferenceRunner {
 public:
  /// `evaluator` supplies the latency/accuracy/reward models; `trace` is the
  /// scene's bandwidth time series; `boundaries` the block boundaries.
  InferenceRunner(const engine::StrategyEvaluator& evaluator,
                  net::BandwidthTrace trace,
                  std::vector<std::size_t> boundaries, RunnerConfig config);

  /// Dynamic DNN Surgery: one min-cut decision per inference from the
  /// estimate at its start; no compression.
  RunStats run_surgery() const;

  /// Fixed optimal-branch strategy, executed as-is.
  RunStats run_branch(const engine::Strategy& strategy) const;

  /// Context-aware model tree: fork chosen per block from the running
  /// estimate (Alg. 2).
  RunStats run_tree(const tree::ModelTree& tree) const;

  const net::BandwidthTrace& trace() const { return trace_; }

 private:
  struct Timeline {
    double t_ms;
    net::BandwidthEstimator estimator;
    util::Rng rng;
    double measure();  // the bandwidth estimate at t_ms
  };
  /// Picks one frame's strategy at `tl.t_ms` and pays for its edge blocks.
  using EdgeLeg = std::function<engine::Strategy(Timeline& tl)>;
  /// The frame loop all three policies share: `edge_leg` runs each frame's
  /// edge side, then the offload rule books its cloud leg. One rule (and so
  /// one breaker) spans the sweep, mirroring a long-lived session.
  RunStats run_frames(const char* policy, unsigned rng_salt,
                      const EdgeLeg& edge_leg) const;
  /// Pays for a fixed strategy's edge blocks, one compute draw per block.
  void edge_blocks(Timeline& tl, const engine::Strategy& strategy) const;
  /// Books the cloud leg at `strategy.cut` through `rule`.
  void offload_tail(Timeline& tl, const engine::Strategy& strategy,
                    OffloadRule& rule) const;
  double block_compute_ms(Timeline& tl, const engine::Strategy& strategy,
                          std::size_t begin, std::size_t end) const;
  double transfer_ms(Timeline& tl, std::int64_t bytes) const;
  RunStats summarize(const std::vector<engine::Strategy>& strategies,
                     const std::vector<double>& latencies,
                     const OffloadRule& rule) const;
  double start_time(int inference_index) const;

  const engine::StrategyEvaluator* evaluator_;
  net::BandwidthTrace trace_;
  std::vector<std::size_t> boundaries_;
  RunnerConfig config_;
};

}  // namespace cadmc::runtime
