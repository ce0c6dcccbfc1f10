// Layer-level tests: shapes, MACC formulas (Eqns. 4-5), spec strings
// (Eqn. 1), clone independence, and numerical gradient checks for every
// trainable layer including the composite blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/activation.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "util/rng.h"

namespace cadmc::nn {
namespace {

using tensor::Tensor;

/// Central-difference check of dL/dinput and dL/dparams for the smooth loss
/// L = sum(output^2) (its gradient 2*output stays continuous through ReLU
/// kinks, unlike sum(output)). Numeric losses use training mode because
/// backward() differentiates the training-mode function.
void check_layer_gradients(Layer& layer, const Tensor& input,
                           float tol = 3e-2f, float rel_tol = 0.03f) {
  const Tensor out = layer.forward_train(input);
  layer.zero_grad();
  Tensor grad_out = out;
  grad_out.scale_(2.0f);
  const Tensor grad_in = layer.backward(grad_out);

  const float eps = 2e-3f;
  util::Rng pick(1234);
  auto loss = [&](const Tensor& x) {
    const Tensor y = layer.forward_train(x);
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i)
      s += static_cast<double>(y.at(i)) * y.at(i);
    return static_cast<float>(s);
  };
  for (int check = 0; check < 6; ++check) {
    Tensor xp = input, xm = input;
    const std::int64_t i = static_cast<std::int64_t>(
        pick.uniform_index(static_cast<std::uint64_t>(input.numel())));
    xp.at(i) += eps;
    xm.at(i) -= eps;
    const float numeric = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(grad_in.at(i), numeric,
                std::max(tol, rel_tol * std::fabs(numeric)))
        << "input grad at " << i;
  }
  auto params = layer.params();
  auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    for (int check = 0; check < 3; ++check) {
      Tensor& w = *params[p];
      const std::int64_t i = static_cast<std::int64_t>(
          pick.uniform_index(static_cast<std::uint64_t>(w.numel())));
      const float orig = w.at(i);
      w.at(i) = orig + eps;
      const float lp = loss(input);
      w.at(i) = orig - eps;
      const float lm = loss(input);
      w.at(i) = orig;
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grads[p]->at(i), numeric,
                  std::max(tol, rel_tol * std::fabs(numeric)))
          << "param " << p << " grad at " << i;
    }
  }
}

TEST(Conv2dLayer, SpecString) {
  util::Rng rng(1);
  Conv2d conv(3, 64, 3, 1, 1, rng);
  EXPECT_EQ(conv.spec().to_string(), "conv,3,1,1,64");
}

TEST(Conv2dLayer, OutputShapeAndMacc) {
  util::Rng rng(2);
  Conv2d conv(3, 16, 3, 2, 1, rng);
  const Shape out = conv.output_shape({3, 32, 32});
  EXPECT_EQ(out, (Shape{16, 16, 16}));
  // Eqn. (4): 3*3*3*16*16*16.
  EXPECT_EQ(conv.macc({3, 32, 32}), 3 * 3 * 3 * 16 * 16 * 16);
}

TEST(Conv2dLayer, DepthwiseMaccDividesByGroups) {
  util::Rng rng(3);
  Conv2d dw(8, 8, 3, 1, 1, rng, 8);
  EXPECT_EQ(dw.macc({8, 10, 10}), 3 * 3 * 1 * 8 * 10 * 10);
  EXPECT_EQ(dw.name(), "conv_dw");
}

TEST(Conv2dLayer, WrongInputShapeThrows) {
  util::Rng rng(4);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_THROW(conv.output_shape({4, 32, 32}), std::invalid_argument);
}

TEST(Conv2dLayer, GradientCheck) {
  util::Rng rng(5);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_layer_gradients(conv, Tensor::randn({2, 2, 6, 6}, rng, 0.5f));
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.byte_size()) == 0;
}

// backward() needs what forward_train() cached; the `const` inference
// forward() caches nothing, so it never arms a backward.
TEST(Conv2dLayer, BackwardWithoutTrainingForwardThrows) {
  util::Rng rng(41);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  const Tensor grad = Tensor::randn({1, 3, 5, 5}, rng);
  EXPECT_THROW(conv.backward(grad), std::logic_error);  // never ran forward
  conv.forward(x);
  EXPECT_THROW(conv.backward(grad), std::logic_error);  // inference only
  conv.forward_train(x);
  EXPECT_NO_THROW(conv.backward(grad));
}

TEST(LinearLayer, BackwardWithoutTrainingForwardThrows) {
  util::Rng rng(42);
  Linear fc(4, 3, rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor grad = Tensor::randn({2, 3}, rng);
  EXPECT_THROW(fc.backward(grad), std::logic_error);
  fc.forward(x);
  EXPECT_THROW(fc.backward(grad), std::logic_error);
  fc.forward_train(x);
  EXPECT_NO_THROW(fc.backward(grad));
}

// Regression for the old stale-cache bug class: an inference pass between
// forward_train(x) and backward() must not change what backward computes.
// `layer` runs forward_train(x), forward(y), backward; a clone runs
// forward_train(x), backward. Input and parameter gradients match bitwise.
void check_const_forward_keeps_training_cache(Layer& layer, const Tensor& x,
                                              const Tensor& y,
                                              const Tensor& grad) {
  auto twin = layer.clone();
  layer.zero_grad();
  twin->zero_grad();
  layer.forward_train(x);
  layer.forward(y);
  const Tensor grad_in = layer.backward(grad);
  twin->forward_train(x);
  EXPECT_TRUE(bitwise_equal(grad_in, twin->backward(grad)));
  const auto grads = layer.grads(), twin_grads = twin->grads();
  ASSERT_EQ(grads.size(), twin_grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i)
    EXPECT_TRUE(bitwise_equal(*grads[i], *twin_grads[i])) << "grad " << i;
}

TEST(Layer, ConstForwardBetweenTrainAndBackwardChangesNothing) {
  util::Rng rng(43);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_const_forward_keeps_training_cache(
      conv, Tensor::randn({1, 2, 5, 5}, rng), Tensor::randn({2, 2, 5, 5}, rng),
      Tensor::randn({1, 3, 5, 5}, rng));
  Linear fc(4, 3, rng);
  check_const_forward_keeps_training_cache(fc, Tensor::randn({2, 4}, rng),
                                           Tensor::randn({5, 4}, rng),
                                           Tensor::randn({2, 3}, rng));
  MaxPool2d pool(2, 2);
  check_const_forward_keeps_training_cache(
      pool, Tensor::randn({1, 2, 4, 4}, rng), Tensor::randn({1, 2, 6, 6}, rng),
      Tensor::randn({1, 2, 2, 2}, rng));
  ResidualBlock block(3, 3, 3, 1, false, rng);
  check_const_forward_keeps_training_cache(
      block, Tensor::randn({1, 3, 4, 4}, rng), Tensor::randn({2, 3, 4, 4}, rng),
      Tensor::randn({1, 3, 4, 4}, rng));
}

TEST(Conv2dLayer, CloneIsIndependent) {
  util::Rng rng(6);
  Conv2d conv(2, 2, 1, 1, 0, rng);
  auto clone = conv.clone();
  conv.weight().fill(7.0f);
  auto* cloned = dynamic_cast<Conv2d*>(clone.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_NE(cloned->weight().at(0), 7.0f);
}

TEST(Conv2dLayer, ZeroFilters) {
  util::Rng rng(7);
  Conv2d conv(1, 3, 1, 1, 0, rng);
  conv.zero_filters({1});
  EXPECT_EQ(conv.weight()(1, 0, 0, 0), 0.0f);
  EXPECT_NE(conv.weight()(0, 0, 0, 0), 0.0f);
}

TEST(Conv2dLayer, KeepFiltersShrinksOutput) {
  util::Rng rng(8);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  const float w2 = conv.weight()(2, 1, 0, 0);
  conv.keep_filters({0, 2});
  EXPECT_EQ(conv.out_channels(), 2);
  EXPECT_EQ(conv.weight()(1, 1, 0, 0), w2);
  EXPECT_EQ(conv.output_shape({2, 8, 8})[0], 2);
}

TEST(Conv2dLayer, KeepInputChannels) {
  util::Rng rng(9);
  Conv2d conv(4, 2, 3, 1, 1, rng);
  const float w = conv.weight()(1, 3, 2, 2);
  conv.keep_input_channels({1, 3});
  EXPECT_EQ(conv.in_channels(), 2);
  EXPECT_EQ(conv.weight()(1, 1, 2, 2), w);
}

TEST(Conv2dLayer, FilterSaliencyOrdersByMagnitude) {
  util::Rng rng(10);
  Conv2d conv(1, 2, 1, 1, 0, rng);
  conv.weight()(0, 0, 0, 0) = 0.1f;
  conv.weight()(1, 0, 0, 0) = -5.0f;
  const auto saliency = conv.filter_saliency();
  EXPECT_GT(saliency[1], saliency[0]);
}

TEST(LinearLayer, ForwardMatchesManual) {
  util::Rng rng(11);
  Linear fc(2, 2, rng);
  fc.weight() = Tensor({2, 2}, {1, 2, 3, 4});
  fc.bias() = Tensor::from_values({0.5f, -0.5f});
  const Tensor x({1, 2}, {1.0f, 1.0f});
  const Tensor y = fc.forward(x);
  EXPECT_EQ(y(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_EQ(y(0, 1), 6.5f);   // 3+4-0.5
}

TEST(LinearLayer, MaccIsEqn5) {
  util::Rng rng(12);
  Linear fc(128, 10, rng);
  EXPECT_EQ(fc.macc({128}), 1280);
  EXPECT_EQ(fc.spec().to_string(), "fc,0,0,0,10");
}

TEST(LinearLayer, GradientCheck) {
  util::Rng rng(13);
  Linear fc(5, 4, rng);
  check_layer_gradients(fc, Tensor::randn({3, 5}, rng));
}

TEST(LinearLayer, WrongInputThrows) {
  util::Rng rng(14);
  Linear fc(5, 4, rng);
  EXPECT_THROW(fc.forward(Tensor({2, 6})), std::invalid_argument);
}

TEST(LinearLayer, SparsityReporting) {
  util::Rng rng(15);
  Linear fc(4, 4, rng);
  EXPECT_EQ(fc.sparsity(), 0.0);
  fc.weight().fill(0.0f);
  EXPECT_EQ(fc.sparsity(), 1.0);
}

TEST(ReLULayer, ForwardBackward) {
  ReLU relu;
  const Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward_train(x);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 2), 2.0f);
  const Tensor g = relu.backward(Tensor::ones({1, 4}));
  EXPECT_EQ(g(0, 0), 0.0f);
  EXPECT_EQ(g(0, 2), 1.0f);
}

TEST(ReLULayer, Relu6Caps) {
  ReLU relu6(6.0f);
  const Tensor x({1, 2}, {10.0f, 3.0f});
  const Tensor y = relu6.forward_train(x);
  EXPECT_EQ(y(0, 0), 6.0f);
  const Tensor g = relu6.backward(Tensor::ones({1, 2}));
  EXPECT_EQ(g(0, 0), 0.0f);  // saturated
  EXPECT_EQ(g(0, 1), 1.0f);
  EXPECT_EQ(relu6.spec().type, "relu6");
}

TEST(FlattenLayer, RoundTrip) {
  Flatten flatten;
  util::Rng rng(16);
  const Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor y = flatten.forward_train(x);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor g = flatten.backward(Tensor::ones({2, 48}));
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_EQ(flatten.output_shape({3, 4, 4}), (Shape{48}));
}

TEST(DropoutLayer, IdentityAtInference) {
  Dropout dropout(0.5, 1);
  util::Rng rng(17);
  const Tensor x = Tensor::randn({2, 8}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(dropout.forward(x), x), 0.0f);
}

TEST(DropoutLayer, ScalesKeptUnits) {
  Dropout dropout(0.5, 2);
  const Tensor x = Tensor::ones({1, 1000});
  const Tensor y = dropout.forward_train(x);
  int kept = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) != 0.0f) {
      EXPECT_NEAR(y.at(i), 2.0f, 1e-6f);
      ++kept;
    }
  }
  EXPECT_NEAR(kept, 500, 60);
}

TEST(DropoutLayer, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout(1.0, 3), std::invalid_argument);
}

TEST(FireLayer, ShapeAndMacc) {
  util::Rng rng(20);
  Fire fire(16, 4, 8, rng);
  EXPECT_EQ(fire.out_channels(), 16);
  EXPECT_EQ(fire.output_shape({16, 8, 8}), (Shape{16, 8, 8}));
  // squeeze 1x1: 16*4*64; expand1 1x1: 4*8*64; expand3 3x3: 9*4*8*64.
  EXPECT_EQ(fire.macc({16, 8, 8}), 16 * 4 * 64 + 4 * 8 * 64 + 9 * 4 * 8 * 64);
}

TEST(FireLayer, GradientCheck) {
  util::Rng rng(21);
  Fire fire(4, 2, 3, rng);
  check_layer_gradients(fire, Tensor::randn({1, 4, 5, 5}, rng, 0.5f), 5e-2f,
                        0.12f);
}

TEST(InvertedResidualLayer, SkipOnlyWhenShapesMatch) {
  util::Rng rng(22);
  InvertedResidual with_skip(8, 8, 2, 1, rng);
  EXPECT_TRUE(with_skip.has_skip());
  InvertedResidual stride2(8, 8, 2, 2, rng);
  EXPECT_FALSE(stride2.has_skip());
  InvertedResidual grow(8, 16, 2, 1, rng);
  EXPECT_FALSE(grow.has_skip());
}

TEST(InvertedResidualLayer, OutputShape) {
  util::Rng rng(23);
  InvertedResidual block(8, 16, 2, 2, rng);
  EXPECT_EQ(block.output_shape({8, 16, 16}), (Shape{16, 8, 8}));
}

TEST(InvertedResidualLayer, GradientCheck) {
  util::Rng rng(24);
  InvertedResidual block(4, 4, 2, 1, rng);
  check_layer_gradients(block, Tensor::randn({1, 4, 4, 4}, rng, 0.5f), 5e-2f,
                        0.12f);
}

TEST(ResidualBlockLayer, IdentitySkipShape) {
  util::Rng rng(25);
  ResidualBlock block(16, 4, 16, 1, true, rng);
  EXPECT_EQ(block.output_shape({16, 8, 8}), (Shape{16, 8, 8}));
}

TEST(ResidualBlockLayer, ProjectionOnStride) {
  util::Rng rng(26);
  ResidualBlock block(16, 8, 32, 2, true, rng);
  EXPECT_EQ(block.output_shape({16, 8, 8}), (Shape{32, 4, 4}));
}

TEST(ResidualBlockLayer, GradientCheckBasic) {
  util::Rng rng(27);
  ResidualBlock block(3, 3, 3, 1, false, rng);
  check_layer_gradients(block, Tensor::randn({1, 3, 4, 4}, rng, 0.5f), 6e-2f,
                        0.12f);
}

TEST(SequentialBlockLayer, ComposesForwardAndShapes) {
  util::Rng rng(28);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng));
  layers.push_back(std::make_unique<ReLU>());
  SequentialBlock block("test_block", std::move(layers),
                        LayerSpec{"test_block", 3, 1, 1, 4});
  EXPECT_EQ(block.output_shape({2, 6, 6}), (Shape{4, 6, 6}));
  EXPECT_EQ(block.macc({2, 6, 6}), 9 * 2 * 4 * 36);
  EXPECT_EQ(block.name(), "test_block");
  const Tensor out = block.forward(Tensor::ones({1, 2, 6, 6}));
  EXPECT_EQ(out.dim(1), 4);
}

TEST(SequentialBlockLayer, GradientCheck) {
  util::Rng rng(29);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng));
  layers.push_back(std::make_unique<ReLU>());
  layers.push_back(std::make_unique<Conv2d>(3, 2, 1, 1, 0, rng));
  SequentialBlock block("b", std::move(layers), LayerSpec{"b", 0, 0, 0, 2});
  check_layer_gradients(block, Tensor::randn({1, 2, 4, 4}, rng, 0.5f), 5e-2f,
                        0.12f);
}

TEST(SequentialBlockLayer, DeepCopyOnClone) {
  util::Rng rng(30);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Linear>(2, 2, rng));
  SequentialBlock block("b", std::move(layers), LayerSpec{"b", 0, 0, 0, 2});
  auto clone = block.clone();
  dynamic_cast<Linear&>(block.layer(0)).weight().fill(9.0f);
  auto* cloned = dynamic_cast<SequentialBlock*>(clone.get());
  EXPECT_NE(dynamic_cast<Linear&>(cloned->layer(0)).weight().at(0), 9.0f);
}

TEST(Layer, ParamCountAndZeroGrad) {
  util::Rng rng(31);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  EXPECT_EQ(conv.param_count(), 3 * 2 * 9 + 3);
  conv.forward_train(Tensor::ones({1, 2, 4, 4}));
  conv.backward(Tensor::ones({1, 3, 4, 4}));
  conv.zero_grad();
  for (Tensor* g : conv.grads()) EXPECT_EQ(g->abs_max(), 0.0f);
}

TEST(MaxPoolLayer, SpecAndEmptyOutputThrows) {
  MaxPool2d pool(2, 2);
  EXPECT_EQ(pool.spec().to_string(), "maxpool,2,2,0,0");
  EXPECT_THROW(pool.output_shape({3, 1, 1}), std::invalid_argument);
}

TEST(GlobalAvgPoolLayer, OutputShapeIsChannels) {
  GlobalAvgPool gap;
  EXPECT_EQ(gap.output_shape({10, 4, 4}), (Shape{10}));
}

// Pooling layers cache only what backward needs (shape + argmax), consume the
// cache in backward, and reject stale use. The const forward() never arms a
// backward.
TEST(MaxPoolLayer, BackwardWithoutTrainingForwardThrows) {
  MaxPool2d pool(2, 2);
  const Tensor input = Tensor::ones({1, 1, 4, 4});
  const Tensor grad = Tensor::ones({1, 1, 2, 2});
  EXPECT_THROW(pool.backward(grad), std::logic_error);
  pool.forward(input);
  EXPECT_THROW(pool.backward(grad), std::logic_error);
  pool.forward_train(input);
  const Tensor grad_in = pool.backward(grad);
  EXPECT_EQ(grad_in.shape(), input.shape());
  // The cache is released by backward: a second backward is stale.
  EXPECT_THROW(pool.backward(grad), std::logic_error);
}

TEST(GlobalAvgPoolLayer, BackwardReleasesCache) {
  GlobalAvgPool gap;
  const Tensor input = Tensor::ones({2, 3, 4, 4});
  const Tensor grad = Tensor::ones({2, 3});
  EXPECT_THROW(gap.backward(grad), std::logic_error);
  gap.forward(input);
  EXPECT_THROW(gap.backward(grad), std::logic_error);
  gap.forward_train(input);
  const Tensor grad_in = gap.backward(grad);
  EXPECT_EQ(grad_in.shape(), input.shape());
  EXPECT_THROW(gap.backward(grad), std::logic_error);
}

}  // namespace
}  // namespace cadmc::nn
