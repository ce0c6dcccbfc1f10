// The model tree realized as runnable layers. In the paper the tree nodes
// *are* DNN blocks (Sec. VI) and Alg. 2 only concatenates them online, so
// every root-to-terminal path of a ModelTree is realized once, offline, with
// faithful weights; inference then picks a path by the forks it took and runs
// it — no per-inference model copy and no per-inference RNG.
//
// Sharing: a path's edge prefix is a chain of `const nn::Layer*`. An
// uncompressed path points into the base model and clones nothing. A
// compressed path owns its whole realized prefix, engine::realize_edge_prefix
// over base [0, cut): the unit is the whole path, not a node, because a
// transform can reach past its own block (a W1 prune in one block rewires the
// next conv, which may sit in the next block). The cloud suffix is always
// base[cut:].
//
// Determinism: a path's weights are a pure function of its strategy. The
// realization RNG is seeded with path_seed(strategy), so a realized path runs
// bitwise like realize_strategy(base, s, TechniqueRegistry{},
// Rng(path_seed(s))).
//
// The base model must outlive the RealizedTree and stay at its address.
// Every const member may be called concurrently: forward passes are const
// over shared weights.
#pragma once

#include <map>

#include "engine/strategy.h"
#include "tree/model_tree.h"

namespace cadmc::tree {

class RealizedTree {
 public:
  // Move-only: `edge` points into `owned`, so a copy would point into the
  // original's layers.
  struct Path {
    Path() = default;
    Path(Path&&) = default;
    Path& operator=(Path&&) = default;
    Path(const Path&) = delete;
    Path& operator=(const Path&) = delete;

    Strategy strategy;                   // strategy_for_path(forks)
    std::vector<const nn::Layer*> edge;  // realized edge prefix, in order
    nn::Model owned;                     // `edge`'s layers if compressed

    /// Runs the edge prefix: base layers [0, strategy.cut) as realized.
    tensor::Tensor forward_edge(const tensor::Tensor& input) const;
  };

  /// Holds no paths; only assignment and destruction are valid.
  RealizedTree() = default;
  /// Realizes every path of `tree` over `base` with the faithful transforms.
  RealizedTree(const ModelTree& tree, const nn::Model& base);

  /// Realization seed of a path: splitmix64(fnv1a64(s.key())).
  static std::uint64_t path_seed(const Strategy& s);

  /// The path Alg. 2 composes when it takes `forks` (as in
  /// ModelTree::Composition::forks). Throws std::out_of_range otherwise.
  const Path& path(const std::vector<int>& forks) const;
  std::size_t num_paths() const { return paths_.size(); }
  /// Layers cloned across all paths; 0 for an uncompressed tree.
  std::size_t owned_layers() const;

 private:
  std::map<std::vector<int>, Path> paths_;
};

}  // namespace cadmc::tree
