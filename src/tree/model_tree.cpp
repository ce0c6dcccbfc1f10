#include "tree/model_tree.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "compress/transform.h"

namespace cadmc::tree {

ModelTree::ModelTree(const nn::Model& base, std::vector<std::size_t> boundaries,
                     std::vector<double> fork_bandwidths)
    : base_(&base), fork_bandwidths_(std::move(fork_bandwidths)) {
  if (fork_bandwidths_.empty())
    throw std::invalid_argument("ModelTree: need at least one fork bandwidth");
  for (std::size_t i = 1; i < fork_bandwidths_.size(); ++i)
    if (fork_bandwidths_[i] <= fork_bandwidths_[i - 1])
      throw std::invalid_argument("ModelTree: fork bandwidths must ascend");
  edges_.push_back(0);
  for (std::size_t b : boundaries) {
    if (b <= edges_.back() || b >= base.size())
      throw std::invalid_argument("ModelTree: bad boundary");
    edges_.push_back(b);
  }
  edges_.push_back(base.size());
  reset();
}

int ModelTree::classify(double bandwidth_bytes_per_ms) const {
  const int k = fork_count();
  for (int fork = 0; fork + 1 < k; ++fork) {
    const double threshold = std::sqrt(fork_bandwidths_[static_cast<std::size_t>(fork)] *
                                       fork_bandwidths_[static_cast<std::size_t>(fork) + 1]);
    if (bandwidth_bytes_per_ms < threshold) return fork;
  }
  return k - 1;
}

namespace {
void build_none_subtree(TreeNode& node, const ModelTree& tree) {
  node.cut_local = tree.block_len(node.depth);
  node.block_plan.assign(node.cut_local, TechniqueId::kNone);
  node.children.clear();
  if (node.depth + 1 < tree.num_blocks()) {
    for (int k = 0; k < tree.fork_count(); ++k) {
      TreeNode child;
      child.depth = node.depth + 1;
      child.fork = k;
      node.children.push_back(std::move(child));
      build_none_subtree(node.children.back(), tree);
    }
  }
}

/// Restores the K default-decision children of a truncated non-terminal
/// node (a previous graft may have partitioned and pruned here).
void ensure_children(TreeNode& node, const ModelTree& tree) {
  if (!node.children.empty() || node.depth + 1 >= tree.num_blocks()) return;
  for (int k = 0; k < tree.fork_count(); ++k) {
    TreeNode child;
    child.depth = node.depth + 1;
    child.fork = k;
    node.children.push_back(std::move(child));
    build_none_subtree(node.children.back(), tree);
  }
}
}  // namespace

void ModelTree::reset() {
  root_ = TreeNode{};
  root_.depth = 0;  // virtual root; children are the depth-0 variants
  for (int k = 0; k < fork_count(); ++k) {
    TreeNode child;
    child.depth = 0;
    child.fork = k;
    root_.children.push_back(std::move(child));
    build_none_subtree(root_.children.back(), *this);
  }
}

ModelTree::PathStrategy ModelTree::walk(
    const std::function<int(std::size_t level)>& pick_fork,
    const BlockHook& on_block) const {
  PathStrategy out;
  Strategy& s = out.strategy;
  s.plan.assign(base_->size(), TechniqueId::kNone);
  s.cut = base_->size();
  const TreeNode* node = &root_;
  for (std::size_t level = 0; level < num_blocks(); ++level) {
    const int fork = pick_fork(level);
    const auto child = std::find_if(
        node->children.begin(), node->children.end(),
        [fork](const TreeNode& c) { return c.fork == fork; });
    if (child == node->children.end())
      throw std::logic_error("ModelTree: missing child");
    node = &*child;
    const std::size_t begin = block_begin(level);
    for (std::size_t i = 0; i < node->block_plan.size(); ++i)
      if (begin + i < s.plan.size()) s.plan[begin + i] = node->block_plan[i];
    ++out.blocks_walked;
    if (on_block) on_block(*node, s);
    if (node->partitions(block_len(level))) {
      s.cut = begin + node->cut_local;
      break;
    }
  }
  return out;
}

ModelTree::PathStrategy ModelTree::strategy_for_path(
    const std::vector<int>& forks) const {
  return walk(
      [&](std::size_t level) {
        if (level >= forks.size())
          throw std::invalid_argument("strategy_for_path: fork path too short");
        return forks[level];
      },
      {});
}

std::vector<std::vector<int>> ModelTree::all_paths() const {
  std::vector<std::vector<int>> paths;
  std::vector<int> current;
  const std::function<void(const TreeNode&)> visit = [&](const TreeNode& node) {
    for (const TreeNode& child : node.children) {
      current.push_back(child.fork);
      if (child.children.empty()) {
        paths.push_back(current);
      } else {
        visit(child);
      }
      current.pop_back();
    }
  };
  visit(root_);
  return paths;
}

ModelTree::Composition ModelTree::compose_online(
    const std::function<double(std::size_t block)>& measure_bandwidth,
    const BlockHook& on_block) const {
  Composition out;
  out.strategy = walk(
      [&](std::size_t level) {
        out.observed_bandwidths.push_back(measure_bandwidth(level));
        out.forks.push_back(classify(out.observed_bandwidths.back()));
        return out.forks.back();
      },
      on_block).strategy;
  return out;
}

bool ModelTree::graft_block(TreeNode& node, const Strategy& branch) const {
  const std::size_t begin = block_begin(node.depth);
  const std::size_t cut = std::min(branch.cut, block_end(node.depth));
  node.cut_local = cut > begin ? cut - begin : 0;
  const auto first = branch.plan.begin() + static_cast<std::ptrdiff_t>(begin);
  node.block_plan.assign(first, first + static_cast<std::ptrdiff_t>(node.cut_local));
  if (!node.partitions(block_len(node.depth))) return true;
  node.children.clear();
  return false;
}

void ModelTree::graft_branch(int fork, const Strategy& branch) {
  if (branch.plan.size() != base_->size())
    throw std::invalid_argument("graft_branch: plan size mismatch");
  TreeNode* node = &root_;
  for (std::size_t level = 0; level < num_blocks(); ++level) {
    if (node != &root_) ensure_children(*node, *this);
    TreeNode* next = nullptr;
    for (TreeNode& c : node->children)
      if (c.fork == fork) next = &c;
    if (next == nullptr) return;  // no deeper levels exist
    node = next;
    if (!graft_block(*node, branch)) return;
  }
}

void ModelTree::graft_everywhere(const Strategy& branch) {
  if (branch.plan.size() != base_->size())
    throw std::invalid_argument("graft_everywhere: plan size mismatch");
  const std::function<void(TreeNode&)> write = [&](TreeNode& node) {
    if (!graft_block(node, branch)) return;
    for (TreeNode& c : node.children) write(c);
  };
  for (TreeNode& c : root_.children) write(c);
}

std::string ModelTree::to_string() const {
  std::ostringstream ss;
  const std::function<void(const TreeNode&, int)> walk = [&](const TreeNode& node,
                                                             int indent) {
    for (const TreeNode& child : node.children) {
      ss << std::string(static_cast<std::size_t>(indent) * 2, ' ') << "block "
         << child.depth << " fork " << child.fork << " [";
      for (TechniqueId id : child.block_plan)
        ss << compress::technique_short_name(id);
      ss << "]";
      if (child.partitions(block_len(child.depth)))
        ss << " cut@+" << child.cut_local;
      ss << " reward=" << child.reward << "\n";
      walk(child, indent + 1);
    }
  };
  walk(root_, 0);
  return ss.str();
}

}  // namespace cadmc::tree
