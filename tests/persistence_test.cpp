// Persistence tests: weight checkpoints (nn/checkpoint) and model-tree
// serialization (tree/tree_io) — round trips, shape validation, malformed
// input rejection, and end-to-end "train on the server, deploy on the
// device" flows.
#include <gtest/gtest.h>

#include "nn/checkpoint.h"
#include "nn/factory.h"
#include "tree/tree_io.h"
#include "util/rng.h"

namespace cadmc {
namespace {

using compress::TechniqueId;
using tensor::Tensor;

TEST(Checkpoint, BufferRoundTripRestoresForward) {
  nn::Model a = nn::make_tiny_cnn(4, 8, 1);
  nn::Model b = nn::make_tiny_cnn(4, 8, 2);  // different random init
  util::Rng rng(3);
  const Tensor x = Tensor::randn({1, 3, 8, 8}, rng, 0.3f);
  ASSERT_GT(Tensor::max_abs_diff(a.forward(x), b.forward(x)), 1e-4f);

  const auto buffer = nn::encode_weights(a);
  nn::decode_weights(b, buffer);
  EXPECT_EQ(Tensor::max_abs_diff(a.forward(x), b.forward(x)), 0.0f);
}

TEST(Checkpoint, FileRoundTrip) {
  nn::Model a = nn::make_mlp(6, 12, 3, 4);
  ASSERT_TRUE(nn::save_weights(a, "/tmp/cadmc_ckpt_test.bin"));
  nn::Model b = nn::make_mlp(6, 12, 3, 5);
  nn::load_weights(b, "/tmp/cadmc_ckpt_test.bin");
  util::Rng rng(6);
  const Tensor x = Tensor::randn({2, 6}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(a.forward(x), b.forward(x)), 0.0f);
}

TEST(Checkpoint, ArchitectureMismatchRejected) {
  nn::Model a = nn::make_mlp(6, 12, 3, 7);
  const auto buffer = nn::encode_weights(a);
  nn::Model wrong_count = nn::make_tiny_cnn(4, 8, 8);
  EXPECT_THROW(nn::decode_weights(wrong_count, buffer), std::runtime_error);
  nn::Model wrong_shape = nn::make_mlp(6, 16, 3, 9);  // same param count order
  EXPECT_THROW(nn::decode_weights(wrong_shape, buffer), std::runtime_error);
}

TEST(Checkpoint, CorruptBufferRejected) {
  nn::Model a = nn::make_mlp(4, 4, 2, 10);
  auto buffer = nn::encode_weights(a);
  buffer[0] ^= 0xFF;  // magic
  EXPECT_THROW(nn::decode_weights(a, buffer), std::runtime_error);
  auto truncated = nn::encode_weights(a);
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW(nn::decode_weights(a, truncated), std::runtime_error);
  auto trailing = nn::encode_weights(a);
  trailing.push_back(0);
  EXPECT_THROW(nn::decode_weights(a, trailing), std::runtime_error);
}

TEST(Checkpoint, MissingFileThrows) {
  nn::Model a = nn::make_mlp(4, 4, 2, 11);
  EXPECT_THROW(nn::load_weights(a, "/tmp/cadmc_missing_ckpt.bin"),
               std::runtime_error);
}

class TreeIoFixture : public ::testing::Test {
 protected:
  TreeIoFixture()
      : base_(nn::make_alexnet()),
        boundaries_(nn::block_boundaries(base_, 3)) {}

  tree::ModelTree make_decorated_tree() const {
    tree::ModelTree t(base_, boundaries_, {100.0, 500.0});
    engine::Strategy poor;
    poor.cut = base_.size();
    poor.plan.assign(base_.size(), TechniqueId::kNone);
    poor.plan[3] = TechniqueId::kC1MobileNet;
    t.graft_branch(0, poor);
    engine::Strategy rich;
    rich.cut = boundaries_[0] + 1;  // partition inside block 1
    rich.plan.assign(base_.size(), TechniqueId::kNone);
    rich.plan[6] = TechniqueId::kC3SqueezeNet;
    t.graft_branch(1, rich);
    return t;
  }

  nn::Model base_;
  std::vector<std::size_t> boundaries_;
};

TEST_F(TreeIoFixture, EncodeDecodePreservesAllPaths) {
  const tree::ModelTree original = make_decorated_tree();
  const tree::ModelTree decoded =
      tree::decode_tree(base_, tree::encode_tree(original));
  ASSERT_EQ(decoded.num_blocks(), original.num_blocks());
  ASSERT_EQ(decoded.fork_count(), original.fork_count());
  const auto paths = original.all_paths();
  ASSERT_EQ(decoded.all_paths().size(), paths.size());
  for (const auto& path : paths) {
    const auto a = original.strategy_for_path(path);
    const auto b = decoded.strategy_for_path(path);
    EXPECT_EQ(a.strategy.cut, b.strategy.cut);
    EXPECT_EQ(a.strategy.plan, b.strategy.plan);
  }
}

TEST_F(TreeIoFixture, FileRoundTrip) {
  const tree::ModelTree original = make_decorated_tree();
  ASSERT_TRUE(tree::save_tree(original, "/tmp/cadmc_tree_test.txt"));
  const tree::ModelTree loaded =
      tree::load_tree(base_, "/tmp/cadmc_tree_test.txt");
  EXPECT_EQ(tree::encode_tree(loaded), tree::encode_tree(original));
}

TEST_F(TreeIoFixture, ComposeFromLoadedTreeMatchesOriginal) {
  const tree::ModelTree original = make_decorated_tree();
  const tree::ModelTree loaded =
      tree::decode_tree(base_, tree::encode_tree(original));
  for (double bw : {50.0, 2000.0}) {
    const auto a = original.compose_online([&](std::size_t) { return bw; });
    const auto b = loaded.compose_online([&](std::size_t) { return bw; });
    EXPECT_EQ(a.strategy.cut, b.strategy.cut);
    EXPECT_EQ(a.strategy.plan, b.strategy.plan);
    EXPECT_EQ(a.forks, b.forks);
  }
}

TEST_F(TreeIoFixture, MalformedInputsRejected) {
  EXPECT_THROW(tree::decode_tree(base_, "not a tree"), std::runtime_error);
  EXPECT_THROW(tree::decode_tree(base_, "cadmc-tree v1\nbogus 1 2\n"),
               std::runtime_error);
  const std::string good = tree::encode_tree(make_decorated_tree());
  // A node line with an out-of-range technique id must be rejected.
  EXPECT_THROW(tree::decode_tree(base_, good + "node 0 1 9\n"),
               std::runtime_error);
  // A node line whose plan length disagrees with its cut must be rejected.
  EXPECT_THROW(tree::decode_tree(base_, good + "node 0 2 0\n"),
               std::runtime_error);
  // A doubled separator leaves an empty path, which would address the
  // virtual root and clear the whole tree.
  EXPECT_THROW(tree::decode_tree(base_, good + "node  0 \n"),
               std::runtime_error);
  // Numbers are whole tokens: a numeric prefix is not a cut or a boundary,
  // and a token with no digits is malformed input, not std::invalid_argument.
  EXPECT_THROW(tree::decode_tree(base_, good + "node 0 1x 0\n"),
               std::runtime_error);
  EXPECT_THROW(tree::decode_tree(base_, good + "node 0 x\n"),
               std::runtime_error);
  std::string bad_boundary = good;
  bad_boundary.insert(good.find("\nforks"), "x");  // "boundaries ... <b>x"
  EXPECT_THROW(tree::decode_tree(base_, bad_boundary), std::runtime_error);
}

TEST_F(TreeIoFixture, WrongBaseModelRejected) {
  const std::string text = tree::encode_tree(make_decorated_tree());
  nn::Model other = nn::make_mlp(4, 8, 2);  // boundaries won't fit
  EXPECT_ANY_THROW(tree::decode_tree(other, text));
}

TEST_F(TreeIoFixture, MissingFileThrows) {
  EXPECT_THROW(tree::load_tree(base_, "/tmp/cadmc_missing_tree.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace cadmc
