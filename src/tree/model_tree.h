// The context-aware model tree (Sec. VI). The base DNN is sliced into N
// blocks; the tree has N levels and K forks per node, one fork per network
// condition type (the paper uses K = 2: 'poor' and 'good', the lower and
// upper bandwidth quartiles). Each node holds the decisions for one block
// conditioned on the bandwidth type observed before running it:
//  * an intra-block partition cut (== block length means "no partition"), and
//  * a compression plan for the block's edge-side layers.
// A node that partitions is terminal: everything after its cut runs on the
// cloud, inherited unmodified from the base DNN (cloud flag of Alg. 3).
//
// Alg. 2 (compose_online) walks the tree at inference time: measure the
// bandwidth before each block, descend the matching fork, and concatenate
// blocks until a partition or the final layer.
#pragma once

#include <functional>

#include "engine/strategy.h"

namespace cadmc::tree {

using compress::TechniqueId;
using engine::Strategy;

struct TreeNode {
  std::size_t depth = 0;   // block index
  int fork = 0;            // bandwidth type this node answers
  std::size_t cut_local = 0;               // offset within the block; == block length -> no partition
  std::vector<TechniqueId> block_plan;     // one entry per block layer (edge side only)
  double reward = 0.0;                     // backward-estimated (Alg. 3)
  std::vector<TreeNode> children;          // K children, or empty if terminal

  bool partitions(std::size_t block_len) const { return cut_local < block_len; }
};

class ModelTree {
 public:
  /// Empty tree (no base model); only assignment and destruction are valid.
  ModelTree() = default;

  /// `boundaries` are the block boundaries in base-layer indices (as from
  /// nn::block_boundaries); `fork_bandwidths` are the K representative
  /// bandwidths (bytes/ms), ascending (fork 0 = poorest).
  ModelTree(const nn::Model& base, std::vector<std::size_t> boundaries,
            std::vector<double> fork_bandwidths);

  bool valid() const { return base_ != nullptr; }

  const nn::Model& base() const { return *base_; }
  std::size_t num_blocks() const { return edges_.size() - 1; }
  int fork_count() const { return static_cast<int>(fork_bandwidths_.size()); }
  const std::vector<double>& fork_bandwidths() const { return fork_bandwidths_; }
  /// Block j spans base layers [block_begin(j), block_end(j)).
  std::size_t block_begin(std::size_t j) const { return edges_.at(j); }
  std::size_t block_end(std::size_t j) const { return edges_.at(j + 1); }
  std::size_t block_len(std::size_t j) const { return block_end(j) - block_begin(j); }

  /// Fork index for a measured bandwidth: nearest representative in
  /// log-space (thresholds at the geometric means of adjacent forks).
  int classify(double bandwidth_bytes_per_ms) const;

  TreeNode& root() { return root_; }
  const TreeNode& root() const { return root_; }

  /// Builds a fully 'None' tree (no partition, no compression anywhere).
  void reset();

  /// Called once per block the walk runs, after the node's block decisions
  /// are written into `strategy` and before the walk moves the cut.
  using BlockHook =
      std::function<void(const TreeNode& node, const Strategy& strategy)>;

  /// The strategy realized by following `forks` (fork per level; extra
  /// entries ignored once a node partitions). Also returns how many blocks
  /// actually executed on the edge path.
  struct PathStrategy {
    Strategy strategy;
    std::size_t blocks_walked = 0;
  };
  PathStrategy strategy_for_path(const std::vector<int>& forks) const;

  /// All root-to-terminal fork paths (K^depth enumeration, truncated at
  /// partitioned nodes).
  std::vector<std::vector<int>> all_paths() const;

  /// Alg. 2: composes the inference strategy online. `measure_bandwidth` is
  /// called once before each block and returns the current estimate
  /// (bytes/ms); `on_block`, when set, runs each block as the walk reaches
  /// it. Returns the composed strategy, the forks taken and the bandwidth
  /// observed per block.
  struct Composition {
    Strategy strategy;
    std::vector<int> forks;
    std::vector<double> observed_bandwidths;
  };
  Composition compose_online(
      const std::function<double(std::size_t block)>& measure_bandwidth,
      const BlockHook& on_block = {}) const;

  /// Grafts an optimal-branch strategy onto the all-`fork` path (optimal
  /// branch boosting, Sec. VII-A).
  void graft_branch(int fork, const Strategy& branch);

  /// Writes the strategy's block decisions into EVERY node, so all fork
  /// paths realize it — used to seed the whole tree with one known-good
  /// strategy as an incumbent.
  void graft_everywhere(const Strategy& branch);

  std::string to_string() const;

 private:
  /// The one Alg. 2 walk: `pick_fork(level)` names the fork to descend
  /// before each block.
  PathStrategy walk(const std::function<int(std::size_t level)>& pick_fork,
                    const BlockHook& on_block) const;
  /// Writes `branch`'s decisions for block `node.depth` into `node`; returns
  /// false when the node ends up terminal (it partitions, children dropped).
  bool graft_block(TreeNode& node, const Strategy& branch) const;

  const nn::Model* base_ = nullptr;
  std::vector<std::size_t> edges_;  // 0, boundaries..., base size
  std::vector<double> fork_bandwidths_;
  TreeNode root_;  // virtual root; its children are the K block-0 variants
};

}  // namespace cadmc::tree
