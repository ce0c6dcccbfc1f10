// Alg. 1 — "Model Compression and Partition": the optimal-branch search.
// Two LSTM controllers (partition first, then compression on the edge half)
// roll out strategies under a constant bandwidth; each candidate is priced
// by the StrategyEvaluator and both controllers are updated by Monte-Carlo
// policy gradient with an EMA baseline until convergence. The best candidate
// is the "optimal branch" model of Sec. V-C.
//
// The same strategy space is exposed as a discrete genome so random search
// and epsilon-greedy search (Fig. 7 baselines) compare on equal footing.
#pragma once

#include "controller/controllers.h"
#include "engine/strategy.h"
#include "rl/baseline_search.h"
#include "rl/reinforce.h"

namespace cadmc::engine {

struct BranchSearchConfig {
  int episodes = 200;
  int hidden_dim = 24;
  std::uint64_t seed = 7;
  /// Known-good strategies (e.g. the DNN-surgery cut, which lies inside the
  /// branch search space) evaluated up front as incumbents, so the search
  /// result can only improve on them.
  std::vector<Strategy> seed_strategies;
};

struct BranchSearchResult {
  Strategy best;
  Evaluation best_eval;
  rl::EpisodeLog log;
};

class BranchSearch {
 public:
  BranchSearch(const StrategyEvaluator& evaluator,
               const BranchSearchConfig& config);

  /// Runs Alg. 1 under one constant bandwidth.
  BranchSearchResult run(double bandwidth_bytes_per_ms);

  /// One rollout without an update (exposed for the tree search, which
  /// reuses trained controllers).
  Strategy sample_strategy(double bandwidth_bytes_per_ms, util::Rng& rng);

 private:
  const StrategyEvaluator* evaluator_;
  BranchSearchConfig config_;
  controller::PartitionController partition_;
  controller::CompressionController compression_;
};

/// Zeroes plan entries that are not actually applicable on the edge slice
/// (so accuracy and latency price the same model). Also clears the cloud
/// half of the plan.
Strategy sanitize_strategy(const StrategyEvaluator& evaluator, Strategy s);

/// Genome layout for the search-method baselines: gene 0 = cut (size L+1),
/// gene 1+i = index into the applicable-technique list of base layer i.
rl::StrategySpace make_strategy_space(const StrategyEvaluator& evaluator);
Strategy genome_to_strategy(const StrategyEvaluator& evaluator,
                            const std::vector<int>& genome);

}  // namespace cadmc::engine
