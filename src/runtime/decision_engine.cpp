#include "runtime/decision_engine.h"

#include <stdexcept>

#include "latency/device_profile.h"
#include "nn/factory.h"
#include "obs/span.h"

namespace cadmc::runtime {

DecisionEngine::DecisionEngine(nn::Model base, EngineConfig config)
    : base_(std::move(base)),
      config_(std::move(config)),
      rule_(config_.breaker, /*deadline_ms=*/0.0, /*edge_fallback=*/true) {
  trace_ = net::generate_trace(config_.scene.trace, config_.trace_duration_ms,
                               config_.trace_seed);
  boundaries_ = nn::block_boundaries(base_, config_.num_blocks);

  // K = 2 bandwidth types, 'poor' and 'good', at the trace's lower and upper
  // quartiles (Sec. VII setup); a flat trace still gets strictly increasing
  // fork bandwidths.
  fork_bandwidths_ = {trace_.quantile(0.25), trace_.quantile(0.75)};
  if (fork_bandwidths_[1] <= fork_bandwidths_[0])
    fork_bandwidths_[1] = fork_bandwidths_[0] * 1.01;

  latency::TransferModel transfer;
  transfer.rtt_ms = config_.scene.rtt_ms;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(
          latency::profile_by_name(config_.edge_device)),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  evaluator_ = std::make_unique<engine::StrategyEvaluator>(
      base_, std::move(pe),
      engine::AccuracyModel(config_.base_accuracy, base_.size(),
                            config_.trace_seed ^ 0xACC));
}

void DecisionEngine::train_offline() {
  obs::ScopedSpan offline_span("train_offline");
  // Seed both searches with the DNN-surgery solution (it lies inside the
  // strategy space), so the engine never ships anything worse than the
  // fixed-partition baseline.
  engine::Strategy surgery;
  surgery.plan.assign(base_.size(), compress::TechniqueId::kNone);
  surgery.cut = partition::surgery_cut_for_chain(
      base_, evaluator_->partition_eval(), trace_.quantile(0.5));
  tree::TreeSearchConfig tree_config = config_.tree_config;
  tree_config.branch_config.seed_strategies.push_back(surgery);
  tree_config.extra_boost_strategies.push_back(surgery);

  tree::TreeSearch search(*evaluator_, boundaries_, fork_bandwidths_,
                          tree_config);
  search_result_ = search.run();

  obs::ScopedSpan realize_span("realize_tree");
  realized_ = tree::RealizedTree(search_result_->tree, base_);
}

const tree::ModelTree& DecisionEngine::tree() const {
  return search_result().tree;
}

const tree::TreeSearchResult& DecisionEngine::search_result() const {
  if (!search_result_)
    throw std::logic_error("DecisionEngine: train_offline() not run");
  return *search_result_;
}

DecisionEngine::InferenceOutcome DecisionEngine::infer(
    const tensor::Tensor& input, double t_ms) {
  const tree::ModelTree& model_tree = tree();
  obs::ScopedSpan infer_span("infer");
  net::BandwidthEstimator estimator(trace_, kEstimatorStalenessMs,
                                    kEstimatorAlpha);
  // Alg. 2: one bandwidth measurement before each block. Inference time
  // advances as blocks execute, so later measurements see later link state.
  double t_cursor = t_ms;
  InferenceOutcome outcome;
  tree::ModelTree::Composition composition;
  {
    obs::ScopedSpan compose_span("compose");
    composition = model_tree.compose_online([&](std::size_t block) {
      obs::ScopedSpan estimate_span("estimate");
      const double bw = estimator.estimate_at(t_cursor);
      t_cursor += 5.0 + 10.0 * static_cast<double>(block);  // measurement cadence
      return bw;
    });
  }
  outcome.strategy = composition.strategy;
  outcome.forks = composition.forks;

  // Graceful degradation (OffloadRule): if the link is effectively dead
  // (estimate pinned at the floor, or a blackout at the frame start) or the
  // breaker is open, the cut moves to the end: the composed path's prefix
  // runs as realized and the uncompressed base suffix follows it on the
  // edge. The leg itself runs locally; a real transport's owner books it.
  if (outcome.strategy.cut < base_.size()) {
    const bool link_dead =
        (!composition.observed_bandwidths.empty() &&
         composition.observed_bandwidths.back() <= kDeadLinkBandwidth) ||
        trace_.at(t_ms) <= 0.0;
    rule_.offload(link_dead, {}, [&] {
      outcome.strategy.cut = base_.size();
      outcome.degraded = true;
    });
  }

  const tree::RealizedTree::Path& path = realized_.path(outcome.forks);

  // The modelled per-stage costs (edge device, uplink, cloud) price the
  // strategy; the host wall-clock of each stage rides on the same spans.
  const auto eval = evaluator_->evaluate(outcome.strategy, trace_.at(t_ms));
  // The realized prefix ends at the composed cut; a degraded frame runs the
  // base suffix after it on the edge, an offloaded one in cloud_exec.
  const std::size_t suffix_begin = path.strategy.cut;
  const bool offload = outcome.strategy.cut < base_.size();
  tensor::Tensor features;
  {
    obs::ScopedSpan edge_span("edge_exec");
    edge_span.set_modelled_ms(eval.breakdown.edge_ms);
    features = path.forward_edge(input);
    if (!offload)
      features = base_.forward_range(features, suffix_begin, base_.size());
  }
  {
    obs::ScopedSpan transfer_span("transfer");
    transfer_span.set_modelled_ms(eval.breakdown.transfer_ms);
    // Local run: the feature tensor crosses no real socket; the modelled
    // uplink cost is the whole story (field.cpp pays a real transfer).
  }
  {
    obs::ScopedSpan cloud_span("cloud_exec");
    cloud_span.set_modelled_ms(eval.breakdown.cloud_ms);
    outcome.logits =
        offload ? base_.forward_range(features, suffix_begin, base_.size())
                : std::move(features);
  }
  outcome.latency_ms = eval.latency_ms;
  obs::count("cadmc.runtime.inferences");
  if (offload) obs::count("cadmc.runtime.offloads");
  obs::observe("cadmc.runtime.latency_ms", outcome.latency_ms);
  obs::set_gauge("cadmc.runtime.last_bandwidth", trace_.at(t_ms));
  return outcome;
}

}  // namespace cadmc::runtime
