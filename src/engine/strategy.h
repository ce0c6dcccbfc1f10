// Strategy representation and evaluation. A strategy on a base DNN is
//   * a partition cut (base-layer index; layers [0,cut) on the edge), and
//   * a compression plan (one Table II technique or None per base layer,
//     non-None only on the edge side — the cloud half is never compressed,
//     Alg. 1 / Alg. 3).
//
// StrategyEvaluator prices a strategy without weight-faithful realization:
// the edge slice is realized structurally (exact shapes and MACCs, random
// placeholder weights), the untouched cloud half is priced from precomputed
// base-model prefix sums, accuracy comes from the AccuracyModel, and results
// are memoized (the "memory pool storing the hash code of searched models"
// of Sec. VII-A).
//
// Thread safety: every const member is safe to call concurrently. The three
// memo caches are striped (util::ShardedCache) and every cached value —
// including the realization RNG seed — is a pure function of its cache key,
// so results are bit-identical regardless of call order or thread
// interleaving. Cache traffic is observable as cadmc.eval.cache.* counters.
#pragma once

#include <optional>
#include <string>

#include "compress/registry.h"
#include "engine/accuracy_model.h"
#include "engine/reward.h"
#include "partition/partition.h"
#include "util/sharded_cache.h"

namespace cadmc::engine {

struct Strategy {
  std::size_t cut = 0;                          // base-layer cut index
  std::vector<compress::TechniqueId> plan;      // size = base model size

  /// Memoization key.
  std::string key() const;
};

struct Evaluation {
  double accuracy = 0.0;
  double latency_ms = 0.0;
  double reward = 0.0;
  partition::LatencyBreakdown breakdown;
};

/// Weight-faithful realization of a strategy for actual execution: clones
/// the base, applies the edge-side plan, and returns the transformed model
/// together with the cut position re-expressed in transformed-layer indices.
struct RealizedStrategy {
  nn::Model model;
  std::size_t cut = 0;  // boundary index in the transformed model
};
RealizedStrategy realize_strategy(const nn::Model& base, const Strategy& s,
                                  const compress::TechniqueRegistry& registry,
                                  util::Rng& rng);
/// The edge half of realize_strategy: base layers [0, s.cut) with the plan
/// applied. Consumes `rng` exactly as realize_strategy does, so both yield
/// the same weights from the same seed.
nn::Model realize_edge_prefix(const nn::Model& base, const Strategy& s,
                              const compress::TechniqueRegistry& registry,
                              util::Rng& rng);

class StrategyEvaluator {
 public:
  /// `base` must outlive the evaluator. `seed` drives structural
  /// realizations (placeholder weights only — results are deterministic).
  /// `include_extensions` adds the non-Table-II techniques (Q1 quantization)
  /// to the searchable catalog.
  StrategyEvaluator(const nn::Model& base,
                    partition::PartitionEvaluator partition_eval,
                    AccuracyModel accuracy_model,
                    std::uint64_t seed = 0xE7A1,
                    bool include_extensions = false);

  const nn::Model& base() const { return *base_; }
  const partition::PartitionEvaluator& partition_eval() const { return partition_eval_; }
  const AccuracyModel& accuracy_model() const { return accuracy_model_; }
  const compress::TechniqueRegistry& registry() const { return registry_; }

  /// Technique mask for base layer i when it sits on the edge slice
  /// [slice_begin, slice_end) — applicability is judged within the slice so
  /// cross-cut rewirings (e.g. W1 pruning feeding a cloud layer) are barred.
  std::vector<std::vector<int>> technique_masks(std::size_t slice_begin,
                                                std::size_t slice_end) const;

  /// Prices a strategy under one constant bandwidth (Alg. 1 setting).
  Evaluation evaluate(const Strategy& s, double bandwidth_bytes_per_ms) const;

  /// Prices a strategy under a per-block bandwidth trajectory: block j
  /// (boundaries[j-1]..boundaries[j] in base-layer indices) executes under
  /// bandwidth_per_block[j]; the transfer at the cut is priced with the
  /// bandwidth of the block containing the cut. This is how a model-tree
  /// branch is scored across a series of network states (Sec. VI).
  Evaluation evaluate_trajectory(
      const Strategy& s, const std::vector<std::size_t>& boundaries,
      const std::vector<double>& bandwidth_per_block) const;

  /// Structural edge-slice latency for base layers [begin, end) under
  /// plan entries [begin, end). Cached.
  double edge_slice_latency_ms(const Strategy& s, std::size_t begin,
                               std::size_t end) const;

  /// Cloud latency of the untouched base suffix [cut, size).
  double cloud_suffix_latency_ms(std::size_t cut) const;

  std::size_t memo_size() const { return memo_.size(); }

 private:

  const nn::Model* base_;
  partition::PartitionEvaluator partition_eval_;
  AccuracyModel accuracy_model_;
  compress::TechniqueRegistry registry_;  // structural (faithful = false)
  std::vector<std::int64_t> base_boundary_bytes_;
  std::vector<double> cloud_prefix_ms_;  // prefix sums of base cloud latency
  std::uint64_t realize_seed_;  // base of the per-key realization seeds
  mutable util::ShardedCache<Evaluation> memo_;
  mutable util::ShardedCache<double> edge_latency_cache_;
  mutable util::ShardedCache<std::vector<std::vector<int>>> mask_cache_;
};

}  // namespace cadmc::engine
