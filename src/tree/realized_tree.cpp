#include "tree/realized_tree.h"

#include <algorithm>
#include <stdexcept>

#include "util/sharded_cache.h"

namespace cadmc::tree {

tensor::Tensor RealizedTree::Path::forward_edge(
    const tensor::Tensor& input) const {
  tensor::Tensor x = input;
  for (const nn::Layer* layer : edge) x = layer->forward(x);
  return x;
}

RealizedTree::RealizedTree(const ModelTree& tree, const nn::Model& base) {
  static const compress::TechniqueRegistry faithful;
  for (std::vector<int>& forks : tree.all_paths()) {
    Path p;
    p.strategy = tree.strategy_for_path(forks).strategy;
    const std::size_t cut = p.strategy.cut;
    const auto plan_begin = p.strategy.plan.begin();
    const bool compressed =
        std::any_of(plan_begin, plan_begin + static_cast<std::ptrdiff_t>(cut),
                    [](TechniqueId id) { return id != TechniqueId::kNone; });
    if (compressed) {
      util::Rng rng(path_seed(p.strategy));
      p.owned = engine::realize_edge_prefix(base, p.strategy, faithful, rng);
      for (std::size_t i = 0; i < p.owned.size(); ++i)
        p.edge.push_back(&p.owned.layer(i));
    } else {
      for (std::size_t i = 0; i < cut; ++i) p.edge.push_back(&base.layer(i));
    }
    paths_.emplace(std::move(forks), std::move(p));
  }
}

std::uint64_t RealizedTree::path_seed(const Strategy& s) {
  std::uint64_t state = util::fnv1a64(s.key());
  return util::splitmix64(state);
}

const RealizedTree::Path& RealizedTree::path(
    const std::vector<int>& forks) const {
  const auto it = paths_.find(forks);
  if (it == paths_.end())
    throw std::out_of_range("RealizedTree::path: not a root-to-terminal path");
  return it->second;
}

std::size_t RealizedTree::owned_layers() const {
  std::size_t n = 0;
  for (const auto& [forks, p] : paths_) n += p.owned.size();
  return n;
}

}  // namespace cadmc::tree
