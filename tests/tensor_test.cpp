// Unit tests for the tensor substrate: construction, indexing, arithmetic,
// matmul variants, convolution (values + gradient checks), pooling, softmax.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace cadmc::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(2), 4);
  EXPECT_EQ(shape_to_string(t.shape()), "[2x3x4]");
}

TEST(Tensor, InvalidShapeThrows) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(Tensor({-1}), std::invalid_argument);
}

TEST(Tensor, ValueConstructorChecksSize) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t(1, 0), 3.0f);
}

TEST(Tensor, RowMajorIndexing) {
  Tensor t({2, 3});
  t(1, 2) = 5.0f;
  EXPECT_EQ(t.at(5), 5.0f);
  Tensor u({2, 2, 2, 2});
  u(1, 1, 1, 1) = 7.0f;
  EXPECT_EQ(u.at(15), 7.0f);
}

TEST(Tensor, FullAndOnes) {
  EXPECT_EQ(Tensor::full({3}, 2.5f).at(1), 2.5f);
  EXPECT_EQ(Tensor::ones({2}).sum(), 2.0f);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  util::Rng a(3), b(3);
  const Tensor x = Tensor::randn({10}, a);
  const Tensor y = Tensor::randn({10}, b);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0f);
}

TEST(Tensor, RandUniformRange) {
  util::Rng rng(4);
  const Tensor t = Tensor::rand_uniform({100}, rng, -1.0f, 2.0f);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t.at(i), -1.0f);
    EXPECT_LT(t.at(i), 2.0f);
  }
}

TEST(Tensor, Reshaped) {
  Tensor t({2, 3});
  t(0, 2) = 9.0f;
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r(1, 0), 9.0f);
  EXPECT_THROW(t.reshaped({4}), std::invalid_argument);
}

TEST(Tensor, ArithmeticInPlace) {
  Tensor a = Tensor::from_values({1.0f, 2.0f});
  Tensor b = Tensor::from_values({3.0f, 4.0f});
  a.add_(b);
  EXPECT_EQ(a(0), 4.0f);
  a.add_scaled_(b, -1.0f);
  EXPECT_EQ(a(1), 2.0f);
  a.scale_(2.0f);
  EXPECT_EQ(a(0), 2.0f);
  a.clamp_min_(1.5f);
  EXPECT_EQ(a(0), 2.0f);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_values({-3.0f, 1.0f, 2.0f});
  EXPECT_EQ(t.sum(), 0.0f);
  EXPECT_EQ(t.max(), 2.0f);
  EXPECT_EQ(t.abs_max(), 3.0f);
  EXPECT_NEAR(t.l2_norm(), std::sqrt(14.0f), 1e-6);
  EXPECT_EQ(t.argmax(), 2);
}

TEST(Tensor, ByteSizeIsFourPerElement) {
  EXPECT_EQ(Tensor({3, 4}).byte_size(), 48);
}

TEST(Matmul, MatchesHandComputed) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c(0, 0), 58.0f);
  EXPECT_EQ(c(0, 1), 64.0f);
  EXPECT_EQ(c(1, 0), 139.0f);
  EXPECT_EQ(c(1, 1), 154.0f);
}

TEST(Matmul, DimensionMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), std::invalid_argument);
}

TEST(Matmul, TransposedVariantsAgree) {
  util::Rng rng(5);
  const Tensor a = Tensor::randn({4, 6}, rng);
  const Tensor b = Tensor::randn({6, 5}, rng);
  const Tensor ref = matmul(a, b);
  Tensor at({6, 4});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 6; ++j) at(j, i) = a(i, j);
  EXPECT_LT(Tensor::max_abs_diff(matmul_tn(at, b), ref), 1e-4f);
  Tensor bt({5, 6});
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 5; ++j) bt(j, i) = b(i, j);
  EXPECT_LT(Tensor::max_abs_diff(matmul_nt(a, bt), ref), 1e-4f);
}

TEST(Conv2d, OutputSizeFormula) {
  EXPECT_EQ(conv_out_size(32, 3, 1, 1), 32);
  EXPECT_EQ(conv_out_size(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_size(7, 3, 1, 0), 5);
}

TEST(Conv2d, IdentityKernel) {
  Tensor input({1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i);
  Tensor weight = Tensor::ones({1, 1, 1, 1});
  const Tensor out = conv2d(input, weight, Tensor(), {1, 0, 1});
  EXPECT_LT(Tensor::max_abs_diff(out, input), 1e-6f);
}

TEST(Conv2d, KnownValueWithPadding) {
  Tensor input = Tensor::ones({1, 1, 3, 3});
  Tensor weight = Tensor::ones({1, 1, 3, 3});
  const Tensor out = conv2d(input, weight, Tensor(), {1, 1, 1});
  EXPECT_EQ(out(0, 0, 1, 1), 9.0f);   // interior: full 3x3 support
  EXPECT_EQ(out(0, 0, 0, 0), 4.0f);   // corner: 2x2 support
}

TEST(Conv2d, BiasAdded) {
  Tensor input = Tensor::ones({1, 1, 2, 2});
  Tensor weight = Tensor::ones({2, 1, 1, 1});
  Tensor bias = Tensor::from_values({10.0f, 20.0f});
  const Tensor out = conv2d(input, weight, bias, {1, 0, 1});
  EXPECT_EQ(out(0, 0, 0, 0), 11.0f);
  EXPECT_EQ(out(0, 1, 0, 0), 21.0f);
}

TEST(Conv2d, DepthwiseGroups) {
  Tensor input({1, 2, 2, 2});
  input(0, 0, 0, 0) = 1.0f;
  input(0, 1, 0, 0) = 100.0f;
  Tensor weight = Tensor::ones({2, 1, 1, 1});
  const Tensor out = conv2d(input, weight, Tensor(), {1, 0, 2});
  EXPECT_EQ(out(0, 0, 0, 0), 1.0f);
  EXPECT_EQ(out(0, 1, 0, 0), 100.0f);
}

TEST(Conv2d, GroupMismatchThrows) {
  EXPECT_THROW(conv2d(Tensor({1, 3, 4, 4}), Tensor({4, 3, 3, 3}), Tensor(),
                      {1, 1, 2}),
               std::invalid_argument);
}

TEST(Conv2d, GradientCheck) {
  util::Rng rng(6);
  const Tensor input = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor weight = Tensor::randn({3, 2, 3, 3}, rng);
  const Tensor bias = Tensor::randn({3}, rng);
  const Conv2dSpec spec{2, 1, 1};
  const Tensor out = conv2d(input, weight, bias, spec);
  const Tensor grad_out = Tensor::ones(out.shape());
  const Conv2dGrads grads = conv2d_backward(input, weight, true, grad_out, spec);

  const float eps = 1e-2f;
  auto loss_with = [&](const Tensor& in, const Tensor& w, const Tensor& b) {
    return conv2d(in, w, b, spec).sum();
  };
  util::Rng pick(7);
  for (int check = 0; check < 8; ++check) {
    Tensor in_p = input, in_m = input;
    const std::int64_t i = static_cast<std::int64_t>(
        pick.uniform_index(static_cast<std::uint64_t>(input.numel())));
    in_p.at(i) += eps;
    in_m.at(i) -= eps;
    const float numeric =
        (loss_with(in_p, weight, bias) - loss_with(in_m, weight, bias)) /
        (2 * eps);
    EXPECT_NEAR(grads.input.at(i), numeric, 2e-2f);
    Tensor w_p = weight, w_m = weight;
    const std::int64_t j = static_cast<std::int64_t>(
        pick.uniform_index(static_cast<std::uint64_t>(weight.numel())));
    w_p.at(j) += eps;
    w_m.at(j) -= eps;
    const float numeric_w =
        (loss_with(input, w_p, bias) - loss_with(input, w_m, bias)) / (2 * eps);
    EXPECT_NEAR(grads.weight.at(j), numeric_w, 5e-2f);
  }
  const float cells = static_cast<float>(out.dim(0) * out.dim(2) * out.dim(3));
  EXPECT_NEAR(grads.bias(0), cells, 1e-3f);
}

TEST(MaxPool, ValuesAndArgmax) {
  Tensor input({1, 1, 4, 4});
  for (int i = 0; i < 16; ++i) input.at(i) = static_cast<float>(i);
  const auto result = maxpool2d(input, 2, 2);
  EXPECT_EQ(result.output(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(result.output(0, 0, 1, 1), 15.0f);
  EXPECT_EQ(result.argmax[0], 5);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor input({1, 1, 2, 2});
  input(0, 0, 1, 1) = 10.0f;
  const auto fwd = maxpool2d(input, 2, 2);
  Tensor grad_out = Tensor::ones(fwd.output.shape());
  const Tensor grad_in = maxpool2d_backward(input.shape(), fwd.argmax, grad_out);
  EXPECT_EQ(grad_in(0, 0, 1, 1), 1.0f);
  EXPECT_EQ(grad_in(0, 0, 0, 0), 0.0f);
}

TEST(AvgPool, Values) {
  Tensor input({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = avgpool2d(input, 2, 2);
  EXPECT_EQ(out(0, 0, 0, 0), 2.5f);
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  Tensor input({1, 2, 2, 2});
  for (int i = 0; i < 4; ++i) input.at(i) = 2.0f;
  for (int i = 4; i < 8; ++i) input.at(i) = 6.0f;
  const Tensor out = global_avgpool(input);
  EXPECT_EQ(out(0, 0), 2.0f);
  EXPECT_EQ(out(0, 1), 6.0f);
  Tensor grad_out({1, 2});
  grad_out(0, 1) = 8.0f;
  const Tensor grad_in = global_avgpool_backward(input.shape(), grad_out);
  EXPECT_EQ(grad_in(0, 1, 0, 0), 2.0f);
  EXPECT_EQ(grad_in(0, 0, 0, 0), 0.0f);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  const Tensor logits({2, 3}, {1, 2, 3, -1, -1, -1});
  const Tensor p = softmax_rows(logits);
  for (int i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 3; ++j) sum += p(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(p(0, 2), p(0, 1));
  EXPECT_NEAR(p(1, 0), 1.0f / 3.0f, 1e-6f);
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const Tensor logits({1, 2}, {1000.0f, 998.0f});
  const Tensor p = softmax_rows(logits);
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0f, 1e-6f);
  EXPECT_GT(p(0, 0), p(0, 1));
}

/// Parameterized sweep: conv2d output shape matches the formula across
/// kernel/stride/padding combinations and the MACC count matches Eqn. (4).
struct ConvCase {
  int in_c, out_c, k, s, p, h;
};
class ConvShapeSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapeSweep, ShapeMatchesFormula) {
  const ConvCase c = GetParam();
  util::Rng rng(9);
  const Tensor input = Tensor::randn({1, c.in_c, c.h, c.h}, rng, 0.1f);
  const Tensor weight = Tensor::randn({c.out_c, c.in_c, c.k, c.k}, rng, 0.1f);
  const Tensor out = conv2d(input, weight, Tensor(), {c.s, c.p, 1});
  EXPECT_EQ(out.dim(1), c.out_c);
  EXPECT_EQ(out.dim(2), conv_out_size(c.h, c.k, c.s, c.p));
  EXPECT_EQ(out.dim(3), conv_out_size(c.h, c.k, c.s, c.p));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapeSweep,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 8}, ConvCase{3, 8, 3, 1, 1, 16},
                      ConvCase{4, 4, 3, 2, 1, 16}, ConvCase{2, 6, 5, 1, 2, 12},
                      ConvCase{3, 5, 7, 2, 3, 28}, ConvCase{8, 2, 3, 1, 0, 9}));

}  // namespace
}  // namespace cadmc::tensor
