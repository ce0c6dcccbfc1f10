// DecisionEngine — the library's top-level facade (Fig. 2). Offline, it
// generates the scene's bandwidth trace, derives the K = 2 bandwidth types
// from its quartiles, trains the RL controllers, produces the context-aware
// model tree and realizes its paths with faithful weights. Online, it
// composes a DNN from the tree per Alg. 2 at each inference and runs the
// pre-realized path on real tensors.
#pragma once

#include <memory>
#include <optional>

#include "net/scenes.h"
#include "runtime/emulator.h"
#include "runtime/fault.h"
#include "tree/realized_tree.h"
#include "tree/tree_search.h"

namespace cadmc::runtime {

struct EngineConfig {
  std::string edge_device = "phone";       // "phone" or "tx2"
  net::Scene scene;                        // network context to train for
  double base_accuracy = 0.9201;           // accuracy of the base DNN
  std::size_t num_blocks = 3;              // N
  double trace_duration_ms = 60'000.0;
  std::uint64_t trace_seed = 0x7A2CE;
  tree::TreeSearchConfig tree_config;
  // Fault tolerance: when the composed strategy offloads but the estimated
  // bandwidth at the cut is at/below kDeadLinkBandwidth, or the cloud
  // breaker is open, infer() degrades to the all-edge branch of the tree
  // (cut moved to the end; the suffix fork is uncompressed by construction).
  CircuitBreakerConfig breaker;
};

class DecisionEngine {
 public:
  /// Takes ownership of the base model.
  DecisionEngine(nn::Model base, EngineConfig config);

  // Internal components point at the owned base model, so the engine is
  // pinned in place.
  DecisionEngine(const DecisionEngine&) = delete;
  DecisionEngine& operator=(const DecisionEngine&) = delete;
  DecisionEngine(DecisionEngine&&) = delete;
  DecisionEngine& operator=(DecisionEngine&&) = delete;

  /// Offline phase (Fig. 2, top): trains controllers, builds the tree and
  /// realizes every path of it once. Must be called before tree()/infer().
  void train_offline();
  bool trained() const { return search_result_.has_value(); }

  const nn::Model& base() const { return base_; }
  const engine::StrategyEvaluator& evaluator() const { return *evaluator_; }
  const net::BandwidthTrace& trace() const { return trace_; }
  const std::vector<std::size_t>& boundaries() const { return boundaries_; }
  const std::vector<double>& fork_bandwidths() const { return fork_bandwidths_; }
  const tree::ModelTree& tree() const;
  const tree::TreeSearchResult& search_result() const;

  /// Online phase: composes a strategy from the tree per Alg. 2 using the
  /// estimator's bandwidth readings starting at `t_ms`, runs the realized
  /// path for the forks taken, and reports the modelled latency on the
  /// configured devices. The logits are a pure function of (input, forks).
  struct InferenceOutcome {
    tensor::Tensor logits;
    engine::Strategy strategy;
    std::vector<int> forks;
    double latency_ms = 0.0;
    bool degraded = false;  // edge-only fallback (dead link / open breaker)
  };
  InferenceOutcome infer(const tensor::Tensor& input, double t_ms);

  /// Cloud circuit breaker honored by infer(). The engine itself runs
  /// locally, so cloud outcomes are recorded by whoever owns the transport
  /// (e.g. a field loop calling breaker().record_failure() on deadline
  /// misses); once open, infer() composes the all-edge branch until a probe
  /// is due.
  CircuitBreaker& breaker() { return rule_.breaker(); }

 private:
  nn::Model base_;
  EngineConfig config_;
  net::BandwidthTrace trace_;
  std::vector<std::size_t> boundaries_;
  std::vector<double> fork_bandwidths_;
  std::unique_ptr<engine::StrategyEvaluator> evaluator_;
  std::optional<tree::TreeSearchResult> search_result_;
  tree::RealizedTree realized_;  // shares base_'s layers
  OffloadRule rule_;
};

}  // namespace cadmc::runtime
