#include "runtime/emulator.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/span.h"
#include "runtime/shaper.h"
#include "util/stats.h"

namespace cadmc::runtime {

using engine::Strategy;

InferenceRunner::InferenceRunner(const engine::StrategyEvaluator& evaluator,
                                 net::BandwidthTrace trace,
                                 std::vector<std::size_t> boundaries,
                                 RunnerConfig config)
    : evaluator_(&evaluator),
      trace_(std::move(trace)),
      boundaries_(std::move(boundaries)),
      config_(config) {
  if (config_.inferences <= 0)
    throw std::invalid_argument("InferenceRunner: inferences <= 0");
}

double InferenceRunner::start_time(int inference_index) const {
  // Spread inferences across the middle 80% of the trace.
  const double usable = trace_.duration_ms() * 0.8;
  const double offset = trace_.duration_ms() * 0.1;
  return offset + usable * inference_index / config_.inferences;
}

double InferenceRunner::block_compute_ms(Timeline& tl, const Strategy& strategy,
                                         std::size_t begin,
                                         std::size_t end) const {
  double ms = evaluator_->edge_slice_latency_ms(strategy, begin, end);
  if (config_.mode == TimingMode::kField) {
    // Device-side variance: the latency model is only an estimate of the
    // real hardware (Sec. VII-B3).
    ms *= std::exp(tl.rng.normal(0.0, kFieldComputeNoise));
  }
  if (config_.injector != nullptr)
    ms *= config_.injector->next_straggler_factor();
  return ms;
}

double InferenceRunner::transfer_ms(Timeline& tl, std::int64_t bytes) const {
  const auto& tm = evaluator_->partition_eval().transfer_model();
  if (config_.mode == TimingMode::kEstimated) {
    // Emulation: transfer priced at the true instantaneous bandwidth when
    // the offload starts. A blackout sample means the payload cannot move.
    const double bw = trace_.at(tl.t_ms);
    if (bw <= 0.0) return std::numeric_limits<double>::infinity();
    return tm.latency_ms(bytes, bw);
  }
  // Field: the payload drains through every fluctuation the link has while
  // it is in flight (+inf when the trace ends in a dead link).
  return shaped_transfer_ms(trace_, tl.t_ms, bytes, tm.rtt_ms, tm.size_coeff);
}

double InferenceRunner::Timeline::measure() {
  obs::ScopedSpan measure_span("measure_bandwidth");
  return estimator.estimate_at(t_ms);
}

void InferenceRunner::offload_tail(Timeline& tl, const Strategy& strategy,
                                   OffloadRule& rule) const {
  const nn::Model& base = evaluator_->base();
  if (strategy.cut >= base.size()) return;
  double fallback_ms = 0.0;
  const double wait_ms = rule.offload(
      /*link_dead=*/false,
      [&] {
        obs::ScopedSpan transfer_span("transfer");
        const double transfer =
            transfer_ms(tl, base.boundary_bytes()[strategy.cut]);
        transfer_span.set_modelled_ms(transfer);
        obs::ScopedSpan cloud_span("cloud_compute");
        const double cloud = evaluator_->cloud_suffix_latency_ms(strategy.cut);
        cloud_span.set_modelled_ms(cloud);
        return transfer + cloud;
      },
      [&] {
        // The same logits arrive, later and at edge-device prices.
        obs::ScopedSpan fallback_span("edge_fallback");
        fallback_ms = block_compute_ms(tl, strategy, strategy.cut, base.size());
        fallback_span.set_modelled_ms(fallback_ms);
      });
  tl.t_ms += wait_ms;
  tl.t_ms += fallback_ms;
}

void InferenceRunner::edge_blocks(Timeline& tl, const Strategy& strategy) const {
  obs::ScopedSpan edge_span("edge_compute");
  std::size_t begin = 0;
  for (std::size_t j = 0; begin < strategy.cut; ++j) {
    const std::size_t end = std::min(
        j < boundaries_.size() ? boundaries_[j] : evaluator_->base().size(),
        strategy.cut);
    const double ms = block_compute_ms(tl, strategy, begin, end);
    edge_span.add_modelled_ms(ms);
    tl.t_ms += ms;
    begin = end;
  }
}

RunStats InferenceRunner::summarize(const std::vector<Strategy>& strategies,
                                    const std::vector<double>& latencies,
                                    const OffloadRule& rule) const {
  RunStats stats;
  stats.inferences = static_cast<int>(latencies.size());
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    const double acc = evaluator_->accuracy_model().estimate(strategies[i].plan);
    stats.mean_latency_ms += latencies[i];
    stats.mean_accuracy += acc;
    stats.mean_reward += engine::reward(acc, latencies[i]);
  }
  if (stats.inferences > 0) {
    stats.mean_latency_ms /= stats.inferences;
    stats.mean_accuracy /= stats.inferences;
    stats.mean_reward /= stats.inferences;
    stats.p99_latency_ms = util::quantile(latencies, 0.99);
  }
  stats.deadline_misses = rule.deadline_misses();
  stats.edge_fallbacks = rule.edge_fallbacks();
  stats.failures = rule.failures();
  stats.availability =
      stats.inferences > 0
          ? 1.0 - static_cast<double>(rule.failures()) / stats.inferences
          : 1.0;
  return stats;
}

RunStats InferenceRunner::run_frames(const char* policy, unsigned rng_salt,
                                     const EdgeLeg& edge_leg) const {
  std::vector<Strategy> strategies;
  std::vector<double> latencies;
  OffloadRule rule(CircuitBreakerConfig{}, config_.cloud_deadline_ms,
                   config_.edge_fallback);
  const double staleness =
      kEstimatorStalenessMs +
      (config_.mode == TimingMode::kField ? kFieldStalenessExtraMs : 0.0);
  // Policy-level root span: every frame of the run nests under it, so one
  // emulator run profiles as a single trace (`cadmc profile`).
  obs::ScopedSpan policy_span(policy);
  for (int i = 0; i < config_.inferences; ++i) {
    Timeline tl{start_time(i),
                net::BandwidthEstimator(trace_, staleness, kEstimatorAlpha),
                util::Rng(config_.seed ^ (rng_salt + static_cast<unsigned>(i)))};
    const double t_start = tl.t_ms;
    obs::ScopedSpan frame_span("frame");
    Strategy s = edge_leg(tl);
    offload_tail(tl, s, rule);
    latencies.push_back(tl.t_ms - t_start);
    frame_span.set_modelled_ms(latencies.back());
    strategies.push_back(std::move(s));
  }
  return summarize(strategies, latencies, rule);
}

RunStats InferenceRunner::run_surgery() const {
  const nn::Model& base = evaluator_->base();
  return run_frames("run_surgery", 0x5u, [&](Timeline& tl) {
    const double bw_est = tl.measure();
    Strategy s;
    s.plan.assign(base.size(), compress::TechniqueId::kNone);
    s.cut = partition::surgery_cut_for_chain(base, evaluator_->partition_eval(),
                                             bw_est);
    edge_blocks(tl, s);
    return s;
  });
}

RunStats InferenceRunner::run_branch(const Strategy& strategy) const {
  return run_frames("run_branch", 0xB00u, [&](Timeline& tl) {
    edge_blocks(tl, strategy);
    return strategy;
  });
}

RunStats InferenceRunner::run_tree(const tree::ModelTree& tree) const {
  return run_frames("run_tree", 0x7EEu, [&](Timeline& tl) {
    // Alg. 2: measure (an estimate of) the bandwidth before each block at
    // the *current* simulated time, and pay for each block as it executes.
    const auto measure = [&](std::size_t) {
      const double bw_est = tl.measure();
      // The walk classifies `bw_est` into a fork as soon as this returns.
      obs::ScopedSpan fork_span("fork_select");
      return bw_est;
    };
    const auto run_block = [&](const tree::TreeNode& node, const Strategy& s) {
      // One compute draw per block walked, even when its edge slice is
      // empty.
      const std::size_t begin = tree.block_begin(node.depth);
      obs::ScopedSpan edge_span("edge_compute");
      const double ms = block_compute_ms(tl, s, begin, begin + node.cut_local);
      edge_span.set_modelled_ms(ms);
      tl.t_ms += ms;
    };
    return tree.compose_online(measure, run_block).strategy;
  });
}

}  // namespace cadmc::runtime
