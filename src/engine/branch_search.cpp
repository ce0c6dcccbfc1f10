#include "engine/branch_search.h"

#include <stdexcept>

#include "latency/transfer_model.h"
#include "obs/span.h"

namespace cadmc::engine {

using compress::TechniqueId;
using controller::Tensor;

BranchSearch::BranchSearch(const StrategyEvaluator& evaluator,
                           const BranchSearchConfig& config)
    : evaluator_(&evaluator),
      config_(config),
      partition_(config.hidden_dim, config.seed ^ 0x9A17),
      compression_(config.hidden_dim, compress::kTechniqueCount,
                   config.seed ^ 0xC0817) {}

Strategy BranchSearch::sample_strategy(double bandwidth_bytes_per_ms,
                                       util::Rng& rng) {
  const nn::Model& base = evaluator_->base();
  const double bw_mbps = latency::bytes_per_ms_to_mbps(bandwidth_bytes_per_ms);
  const Tensor features = controller::LayerEmbedder::embed(base, bw_mbps);

  Strategy s;
  s.plan.assign(base.size(), TechniqueId::kNone);
  // Partition first (Alg. 1 line 3): action L means "no partition" — the
  // whole model stays on the edge.
  const auto p = partition_.sample(features, rng);
  s.cut = static_cast<std::size_t>(p.action);

  // Then compression of the edge half (Alg. 1 line 4).
  if (s.cut > 0) {
    const Tensor edge_features =
        controller::LayerEmbedder::embed_range(base, 0, s.cut, bw_mbps);
    const auto masks = evaluator_->technique_masks(0, s.cut);
    const auto samples = compression_.sample(edge_features, masks, rng);
    for (std::size_t i = 0; i < samples.size(); ++i)
      s.plan[i] = static_cast<TechniqueId>(samples[i].action);
  }
  return s;
}

BranchSearchResult BranchSearch::run(double bandwidth_bytes_per_ms) {
  obs::ScopedSpan run_span("branch_search");
  const nn::Model& base = evaluator_->base();
  const double bw_mbps = latency::bytes_per_ms_to_mbps(bandwidth_bytes_per_ms);
  util::Rng rng(config_.seed);
  rl::RewardBaseline baseline;
  BranchSearchResult result;
  result.best_eval.reward = -1.0;

  for (const Strategy& seed_strategy : config_.seed_strategies) {
    const Strategy s = sanitize_strategy(*evaluator_, seed_strategy);
    const Evaluation eval = evaluator_->evaluate(s, bandwidth_bytes_per_ms);
    if (eval.reward > result.best_eval.reward) {
      result.best_eval = eval;
      result.best = s;
    }
  }

  for (int episode = 0; episode < config_.episodes; ++episode) {
    const Strategy s = sample_strategy(bandwidth_bytes_per_ms, rng);
    const Evaluation eval = evaluator_->evaluate(s, bandwidth_bytes_per_ms);
    result.log.record(eval.reward);
    if (eval.reward > result.best_eval.reward) {
      result.best_eval = eval;
      result.best = s;
    }
    if (obs::enabled()) {
      obs::count("cadmc.search.branch_episodes");
      obs::observe("cadmc.search.branch_reward", eval.reward);
    }
    const double advantage = baseline.advantage(eval.reward);
    // Rewards live on a ~400 scale; normalize the advantage so the policy
    // gradient magnitude is independent of the reward units.
    const double scaled = advantage / 40.0;

    const Tensor features = controller::LayerEmbedder::embed(base, bw_mbps);
    partition_.zero_grad();
    partition_.accumulate_grad(features, static_cast<int>(s.cut), scaled);
    partition_.step();

    if (s.cut > 0) {
      const Tensor edge_features =
          controller::LayerEmbedder::embed_range(base, 0, s.cut, bw_mbps);
      const auto masks = evaluator_->technique_masks(0, s.cut);
      std::vector<int> actions(s.cut);
      for (std::size_t i = 0; i < s.cut; ++i)
        actions[i] = static_cast<int>(s.plan[i]);
      compression_.zero_grad();
      compression_.accumulate_grad(edge_features, masks, actions, scaled);
      compression_.step();
    }
  }
  return result;
}

Strategy sanitize_strategy(const StrategyEvaluator& evaluator, Strategy s) {
  const std::size_t size = evaluator.base().size();
  if (s.plan.size() != size)
    throw std::invalid_argument("sanitize_strategy: plan size mismatch");
  s.cut = std::min(s.cut, size);
  for (std::size_t i = s.cut; i < size; ++i) s.plan[i] = TechniqueId::kNone;
  if (s.cut > 0) {
    const auto masks = evaluator.technique_masks(0, s.cut);
    for (std::size_t i = 0; i < s.cut; ++i) {
      bool ok = false;
      for (int m : masks[i])
        if (m == static_cast<int>(s.plan[i])) ok = true;
      if (!ok) s.plan[i] = TechniqueId::kNone;
    }
  }
  return s;
}

rl::StrategySpace make_strategy_space(const StrategyEvaluator& evaluator) {
  const std::size_t size = evaluator.base().size();
  rl::StrategySpace space;
  space.cardinalities.push_back(static_cast<int>(size) + 1);  // the cut
  const auto masks = evaluator.technique_masks(0, size);
  for (const auto& mask : masks)
    space.cardinalities.push_back(
        std::max(1, static_cast<int>(mask.size())));
  return space;
}

Strategy genome_to_strategy(const StrategyEvaluator& evaluator,
                            const std::vector<int>& genome) {
  const std::size_t size = evaluator.base().size();
  if (genome.size() != size + 1)
    throw std::invalid_argument("genome_to_strategy: genome size mismatch");
  Strategy s;
  s.cut = static_cast<std::size_t>(genome[0]);
  s.plan.assign(size, TechniqueId::kNone);
  const auto masks = evaluator.technique_masks(0, size);
  for (std::size_t i = 0; i < size; ++i) {
    const auto& mask = masks[i];
    if (mask.empty()) continue;
    const int pick = genome[i + 1] % static_cast<int>(mask.size());
    s.plan[i] = static_cast<TechniqueId>(mask[static_cast<std::size_t>(pick)]);
  }
  return sanitize_strategy(evaluator, s);
}

}  // namespace cadmc::engine
