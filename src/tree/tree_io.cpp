#include "tree/tree_io.h"

#include <charconv>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/string_util.h"

namespace cadmc::tree {

namespace {
// Format:
//   cadmc-tree v1
//   boundaries <b0> <b1> ...
//   forks <bw0> <bw1> ...
//   node <path> <cut_local> <plan digits>   (path = fork chars, "-" for the
//                                            virtual-root children level)
void encode_node(const TreeNode& node, const std::string& path,
                 std::ostringstream& out) {
  out << "node " << (path.empty() ? "-" : path) << " " << node.cut_local << " ";
  for (TechniqueId id : node.block_plan) out << static_cast<int>(id);
  out << "\n";
  for (const TreeNode& c : node.children)
    encode_node(c, path + std::to_string(c.fork), out);
}

// The whole token as a T: an empty token or a non-numeric tail ("1x") is
// malformed input, not a number.
template <typename T>
T parse_number(const std::string& tok) {
  T value{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (ec != std::errc() || ptr != end)
    throw std::runtime_error("decode_tree: bad number '" + tok + "'");
  return value;
}
}  // namespace

std::string encode_tree(const ModelTree& tree) {
  std::ostringstream out;
  out << "cadmc-tree v1\n";
  out << "boundaries";
  for (std::size_t j = 1; j < tree.num_blocks(); ++j)
    out << " " << tree.block_begin(j);
  out << "\nforks";
  for (double bw : tree.fork_bandwidths()) out << " " << bw;
  out << "\n";
  for (const TreeNode& c : tree.root().children)
    encode_node(c, std::to_string(c.fork), out);
  return out.str();
}

bool save_tree(const ModelTree& tree, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << encode_tree(tree);
  return static_cast<bool>(out);
}

ModelTree decode_tree(const nn::Model& base, const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || util::trim(line) != "cadmc-tree v1")
    throw std::runtime_error("decode_tree: bad header");

  auto parse_tail = [](const std::string& l, const std::string& prefix) {
    if (!util::starts_with(l, prefix))
      throw std::runtime_error("decode_tree: expected '" + prefix + "' line");
    return util::split(util::trim(l.substr(prefix.size())), ' ');
  };

  if (!std::getline(in, line)) throw std::runtime_error("decode_tree: truncated");
  std::vector<std::size_t> boundaries;
  for (const std::string& tok : parse_tail(line, "boundaries"))
    if (!tok.empty()) boundaries.push_back(parse_number<std::size_t>(tok));

  if (!std::getline(in, line)) throw std::runtime_error("decode_tree: truncated");
  std::vector<double> forks;
  for (const std::string& tok : parse_tail(line, "forks"))
    if (!tok.empty()) forks.push_back(parse_number<double>(tok));

  ModelTree tree(base, boundaries, forks);  // validates against `base`

  // Apply node lines onto the freshly reset tree.
  while (std::getline(in, line)) {
    line = util::trim(line);
    if (line.empty()) continue;
    const auto parts = util::split(line, ' ');
    if (parts.size() < 3 || parts[0] != "node")
      throw std::runtime_error("decode_tree: malformed node line");
    const std::string& path = parts[1];
    // An empty path would address the virtual root, whose partitioning
    // cut would clear every child.
    if (path.empty()) throw std::runtime_error("decode_tree: empty node path");
    const auto cut_local = parse_number<std::size_t>(parts[2]);
    const std::string plan_digits = parts.size() >= 4 ? parts[3] : "";

    TreeNode* node = &const_cast<TreeNode&>(tree.root());
    std::size_t depth = 0;
    for (char c : path) {
      const int fork = c - '0';
      TreeNode* next = nullptr;
      for (TreeNode& child : node->children)
        if (child.fork == fork) next = &child;
      if (next == nullptr)
        throw std::runtime_error("decode_tree: node path outside tree");
      node = next;
      ++depth;
    }
    const std::size_t block_len = tree.block_len(node->depth);
    if (cut_local > block_len)
      throw std::runtime_error("decode_tree: cut outside block");
    if (plan_digits.size() != cut_local)
      throw std::runtime_error("decode_tree: plan length mismatch");
    node->cut_local = cut_local;
    node->block_plan.clear();
    for (char d : plan_digits) {
      const int id = d - '0';
      if (id < 0 || id >= compress::kTechniqueCount)
        throw std::runtime_error("decode_tree: bad technique id");
      node->block_plan.push_back(static_cast<TechniqueId>(id));
    }
    if (node->partitions(block_len)) node->children.clear();
  }
  return tree;
}

ModelTree load_tree(const nn::Model& base, const std::string& path) {
  std::string text;
  if (!util::read_file(path, text))
    throw std::runtime_error("load_tree: cannot read " + path);
  return decode_tree(base, text);
}

}  // namespace cadmc::tree
