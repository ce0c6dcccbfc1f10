#include "tree/tree_search.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "latency/transfer_model.h"
#include "obs/span.h"
#include "util/thread_pool.h"

namespace cadmc::tree {

using controller::LayerEmbedder;
using engine::Evaluation;

TreeSearch::TreeSearch(const engine::StrategyEvaluator& evaluator,
                       std::vector<std::size_t> boundaries,
                       std::vector<double> fork_bandwidths,
                       const TreeSearchConfig& config)
    : evaluator_(&evaluator),
      boundaries_(std::move(boundaries)),
      fork_bandwidths_(std::move(fork_bandwidths)),
      config_(config),
      partition_(config.hidden_dim, config.seed ^ 0x7A3E),
      compression_(config.hidden_dim, compress::kTechniqueCount,
                   config.seed ^ 0x53C2) {}

void TreeSearch::generate_forward(ModelTree& tree, util::Rng& rng, double alpha,
                                  std::vector<NodeDecision>& decisions) {
  tree.reset();
  const nn::Model& base = evaluator_->base();
  const std::size_t num_blocks = tree.num_blocks();
  // BFS over the complete tree (Alg. 3 line 5).
  std::vector<TreeNode*> frontier;
  for (TreeNode& c : tree.root().children) frontier.push_back(&c);
  std::size_t head = 0;
  while (head < frontier.size()) {
    TreeNode* node = frontier[head++];
    const std::size_t j = node->depth;
    const std::size_t begin = tree.block_begin(j), end = tree.block_end(j);
    const std::size_t block_len = end - begin;
    const double bw_mbps = latency::bytes_per_ms_to_mbps(
        fork_bandwidths_[static_cast<std::size_t>(node->fork)]);

    NodeDecision d;
    d.node = node;
    d.block_features = LayerEmbedder::embed_range(base, begin, end, bw_mbps);

    // Partition decision for this block (Alg. 3 line 9), with fair-chance
    // exploration: force "no partition" with probability alpha*(N-j)/N.
    const double force_prob =
        alpha * static_cast<double>(num_blocks - j) / static_cast<double>(num_blocks);
    const auto p = partition_.sample(d.block_features, rng);
    int action = p.action;
    if (config_.fair_chance && rng.bernoulli(force_prob)) {
      action = static_cast<int>(block_len);  // no partition
      d.forced = true;
      obs::count("cadmc.search.forced_actions");
    }
    d.partition_action = action;
    node->cut_local = static_cast<std::size_t>(action);

    // Compression decision for the block's edge side (Alg. 3 line 10).
    const std::size_t edge_end = begin + node->cut_local;
    node->block_plan.assign(node->cut_local, TechniqueId::kNone);
    d.compressed = node->cut_local > 0;
    if (d.compressed) {
      d.comp_features = LayerEmbedder::embed_range(base, begin, edge_end, bw_mbps);
      d.masks = evaluator_->technique_masks(begin, edge_end);
      const auto samples = compression_.sample(d.comp_features, d.masks, rng);
      d.compression_actions.resize(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        d.compression_actions[i] = samples[i].action;
        node->block_plan[i] = static_cast<TechniqueId>(samples[i].action);
      }
    }

    if (node->partitions(block_len)) {
      // Everything after the cut inherits the base DNN on the cloud
      // (Alg. 3 lines 18-21): terminal node, no children.
      node->children.clear();
    } else {
      for (TreeNode& c : node->children) frontier.push_back(&c);
    }
    decisions.push_back(std::move(d));
  }
}

void TreeSearch::estimate_backward(ModelTree& tree) const {
  obs::ScopedSpan span("estimate_backward");
  const std::size_t num_blocks = tree.num_blocks();

  // Phase 1: collect the terminal nodes and their fork paths (Alg. 3
  // lines 13-25) so the expensive trajectory evaluations can fan out.
  struct Leaf {
    TreeNode* node = nullptr;
    std::vector<int> path;
  };
  std::vector<Leaf> leaves;
  std::vector<int> path;
  const std::function<void(TreeNode&)> collect = [&](TreeNode& node) {
    path.push_back(node.fork);
    if (node.children.empty()) {
      leaves.push_back({&node, path});
    } else {
      for (TreeNode& c : node.children) collect(c);
    }
    path.pop_back();
  };
  for (TreeNode& c : tree.root().children) collect(c);

  // Phase 2: price every terminal path concurrently. Each task writes only
  // its own node's reward, and evaluations are pure (thread-safe evaluator,
  // key-derived realization seeds), so the result is order-independent.
  util::parallel_for(leaves.size(), [&](std::size_t i) {
    const Leaf& leaf = leaves[i];
    const auto ps = tree.strategy_for_path(leaf.path);
    std::vector<double> bandwidths(
        num_blocks, fork_bandwidths_[static_cast<std::size_t>(leaf.path.back())]);
    for (std::size_t level = 0; level < leaf.path.size() && level < num_blocks;
         ++level)
      bandwidths[level] =
          fork_bandwidths_[static_cast<std::size_t>(leaf.path[level])];
    leaf.node->reward =
        evaluator_->evaluate_trajectory(ps.strategy, boundaries_, bandwidths)
            .reward;
  });

  // Phase 3: serial backward averaging (lines 27-31) in child order, so the
  // floating-point sums match the single-threaded walk bit for bit. The
  // root honors backward_averaging exactly like every interior node.
  const std::function<double(TreeNode&)> aggregate = [&](TreeNode& node) {
    if (node.children.empty()) return node.reward;
    double sum = 0.0;
    for (TreeNode& c : node.children) sum += aggregate(c);
    node.reward = config_.backward_averaging
                      ? sum / static_cast<double>(node.children.size())
                      : 0.0;
    return node.reward;
  };
  double root_sum = 0.0;
  for (TreeNode& c : tree.root().children) root_sum += aggregate(c);
  tree.root().reward =
      config_.backward_averaging
          ? root_sum / static_cast<double>(tree.root().children.size())
          : 0.0;
}

double TreeSearch::tree_expected_reward(const ModelTree& tree) const {
  const std::size_t num_blocks = tree.num_blocks();
  const double k = static_cast<double>(tree.fork_count());
  const auto paths = tree.all_paths();
  std::vector<double> rewards(paths.size(), 0.0);
  util::parallel_for(paths.size(), [&](std::size_t i) {
    const auto& path = paths[i];
    const auto ps = tree.strategy_for_path(path);
    std::vector<double> bandwidths(num_blocks,
                                   fork_bandwidths_[static_cast<std::size_t>(path.back())]);
    for (std::size_t level = 0; level < path.size() && level < num_blocks; ++level)
      bandwidths[level] = fork_bandwidths_[static_cast<std::size_t>(path[level])];
    rewards[i] =
        evaluator_->evaluate_trajectory(ps.strategy, boundaries_, bandwidths)
            .reward;
  });
  // Serial reduction in path order keeps the sum bit-identical to a
  // single-threaded run.
  double expected = 0.0;
  for (std::size_t i = 0; i < paths.size(); ++i)
    expected +=
        rewards[i] * std::pow(1.0 / k, static_cast<double>(paths[i].size()));
  return expected;
}

TreeSearchResult TreeSearch::run() {
  obs::ScopedSpan run_span("tree_search");
  util::Rng rng(config_.seed);
  TreeSearchResult result{
      ModelTree(evaluator_->base(), boundaries_, fork_bandwidths_),
      0.0, 0.0, {}, {}};

  // Optimal-branch boosting: search a branch per bandwidth type and graft
  // each onto the all-k path of the incumbent tree (Sec. VII-A).
  if (config_.boost_with_branches) {
    obs::ScopedSpan boost_span("boost_branches");
    // One independent Alg. 1 search per bandwidth type: each has its own
    // seeded controllers and RNG, so running them concurrently against the
    // shared evaluator changes nothing but wall-clock time.
    result.branch_results.resize(fork_bandwidths_.size());
    util::parallel_for(fork_bandwidths_.size(), [&](std::size_t k) {
      engine::BranchSearchConfig bc = config_.branch_config;
      bc.seed = config_.seed ^ (0xB0057ULL + k);
      engine::BranchSearch branch(*evaluator_, bc);
      result.branch_results[k] = branch.run(fork_bandwidths_[k]);
    });
    for (const engine::BranchSearchResult& br : result.branch_results)
      result.best_branch_reward =
          std::max(result.best_branch_reward, br.best_eval.reward);
    // Set once: the concurrent searches would race for the last write.
    obs::set_gauge("cadmc.search.branch_best_reward",
                   result.best_branch_reward);
    // Mixed-fork paths inherit the strongest single branch as a floor; the
    // all-k paths then get their fork-matched branches (Sec. VII-A).
    std::size_t best_k = 0;
    for (std::size_t k = 1; k < result.branch_results.size(); ++k)
      if (result.branch_results[k].best_eval.reward >
          result.branch_results[best_k].best_eval.reward)
        best_k = k;
    result.tree.graft_everywhere(result.branch_results[best_k].best);
    for (std::size_t k = 0; k < result.branch_results.size(); ++k)
      result.tree.graft_branch(static_cast<int>(k),
                               result.branch_results[k].best);
    obs::count("cadmc.search.grafts",
               static_cast<std::int64_t>(1 + result.branch_results.size()));
  }
  estimate_backward(result.tree);
  result.tree_reward = result.tree.root().reward;

  // Extra boosts: graft each pre-trained branch onto every fork and keep
  // the strongest incumbent.
  for (const engine::Strategy& strategy : config_.extra_boost_strategies) {
    ModelTree boosted(evaluator_->base(), boundaries_, fork_bandwidths_);
    boosted.graft_everywhere(strategy);
    estimate_backward(boosted);
    obs::count("cadmc.search.grafts");
    if (boosted.root().reward > result.tree_reward) {
      result.tree_reward = boosted.root().reward;
      result.tree = boosted;
    }
  }

  rl::RewardBaseline baseline;
  ModelTree candidate(evaluator_->base(), boundaries_, fork_bandwidths_);
  for (int episode = 0; episode < config_.episodes; ++episode) {
    const double alpha =
        config_.alpha_decay_episodes > 0
            ? config_.alpha0 *
                  std::max(0.0, 1.0 - static_cast<double>(episode) /
                                          config_.alpha_decay_episodes)
            : 0.0;
    std::vector<NodeDecision> decisions;
    generate_forward(candidate, rng, alpha, decisions);
    estimate_backward(candidate);
    const double tree_reward = candidate.root().reward;
    result.log.record(tree_reward);
    if (tree_reward > result.tree_reward) {
      result.tree_reward = tree_reward;
      result.tree = candidate;
    }
    const double b = baseline.value();
    baseline.advantage(tree_reward);  // fold the episode into the EMA
    if (obs::enabled()) {
      obs::count("cadmc.search.episodes");
      obs::observe("cadmc.search.reward", tree_reward);
      obs::observe("cadmc.search.advantage", tree_reward - b);
      obs::set_gauge("cadmc.search.baseline", b);
      obs::set_gauge("cadmc.search.best_reward", result.tree_reward);
      obs::set_gauge("cadmc.search.alpha", alpha);
    }

    // Controller updates with each node's action-reward pair (Alg. 3 line 33).
    partition_.zero_grad();
    compression_.zero_grad();
    bool any_compression = false;
    for (const NodeDecision& d : decisions) {
      const double advantage = (d.node->reward - b) / 40.0;
      // Fair-chance overrides are exploration, not policy output: crediting
      // the forced no-partition action would bias the gradient toward it.
      // The compression actions below were genuinely sampled (conditioned
      // on the forced cut), so they still receive credit.
      if (d.forced) {
        obs::count("cadmc.search.forced_grad_skips");
      } else {
        partition_.accumulate_grad(d.block_features, d.partition_action,
                                   advantage);
      }
      if (d.compressed) {
        compression_.accumulate_grad(d.comp_features, d.masks,
                                     d.compression_actions, advantage);
        any_compression = true;
      }
    }
    partition_.step();
    if (any_compression) compression_.step();
  }
  return result;
}

}  // namespace cadmc::tree
