// Model-level tests: slicing/appending, profiling, signatures, losses,
// optimizers, and a real end-to-end training run (an MLP learns a separable
// synthetic task to high accuracy).
#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/factory.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "util/rng.h"

namespace cadmc::nn {
namespace {

using tensor::Tensor;

Model tiny_chain(std::uint64_t seed = 40) {
  util::Rng rng(seed);
  Model m({2, 8, 8});
  m.add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2, 2));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Linear>(4 * 4 * 4, 3, rng));
  return m;
}

TEST(Model, BoundaryShapes) {
  const Model m = tiny_chain();
  const auto shapes = m.boundary_shapes();
  ASSERT_EQ(shapes.size(), 6u);
  EXPECT_EQ(shapes[0], (Shape{2, 8, 8}));
  EXPECT_EQ(shapes[1], (Shape{4, 8, 8}));
  EXPECT_EQ(shapes[3], (Shape{4, 4, 4}));
  EXPECT_EQ(shapes[4], (Shape{64}));
  EXPECT_EQ(shapes[5], (Shape{3}));
}

TEST(Model, LayerMaccsAndTotal) {
  const Model m = tiny_chain();
  const auto maccs = m.layer_maccs();
  EXPECT_EQ(maccs[0], 9 * 2 * 4 * 64);
  EXPECT_EQ(maccs[1], 0);
  EXPECT_EQ(maccs[4], 64 * 3);
  EXPECT_EQ(m.total_macc(), maccs[0] + maccs[4]);
}

TEST(Model, BoundaryBytes) {
  const Model m = tiny_chain();
  const auto bytes = m.boundary_bytes();
  EXPECT_EQ(bytes[0], 2 * 8 * 8 * 4);
  EXPECT_EQ(bytes[5], 3 * 4);
}

TEST(Model, SpecStringsAndSignature) {
  const Model m = tiny_chain();
  const auto specs = m.spec_strings();
  EXPECT_EQ(specs[0], "conv,3,1,1,4");
  EXPECT_EQ(specs[4], "fc,0,0,0,3");
  EXPECT_NE(m.signature().find("conv,3,1,1,4"), std::string::npos);
  // Signature distinguishes different models.
  EXPECT_NE(tiny_chain().signature(), make_mlp(4, 8, 2).signature());
}

TEST(Model, SliceShiftsInputShape) {
  const Model m = tiny_chain();
  const Model tail = m.slice(3, 5);
  EXPECT_EQ(tail.input_shape(), (Shape{4, 4, 4}));
  EXPECT_EQ(tail.size(), 2u);
}

TEST(Model, SliceThenAppendMatchesOriginalForward) {
  Model m = tiny_chain();
  Model head = m.slice(0, 2);
  Model recombined = head;
  recombined.append(m.slice(2, m.size()));
  util::Rng rng(41);
  const Tensor x = Tensor::randn({2, 2, 8, 8}, rng);
  const Tensor y1 = m.forward(x);
  const Tensor y2 = recombined.forward(x);
  EXPECT_LT(Tensor::max_abs_diff(y1, y2), 1e-6f);
}

TEST(Model, ForwardRangeComposes) {
  Model m = tiny_chain();
  util::Rng rng(42);
  const Tensor x = Tensor::randn({1, 2, 8, 8}, rng);
  const Tensor mid = m.forward_range(x, 0, 3);
  const Tensor out = m.forward_range(mid, 3, m.size());
  EXPECT_LT(Tensor::max_abs_diff(out, m.forward(x)), 1e-6f);
}

TEST(Model, CopyIsDeep) {
  Model m = tiny_chain();
  Model copy = m;
  dynamic_cast<Conv2d&>(m.layer(0)).weight().fill(5.0f);
  EXPECT_NE(dynamic_cast<Conv2d&>(copy.layer(0)).weight().at(0), 5.0f);
}

TEST(Model, ReplaceLayerWithMultiple) {
  Model m = tiny_chain();
  util::Rng rng(43);
  std::vector<std::unique_ptr<Layer>> repl;
  repl.push_back(std::make_unique<Conv2d>(2, 8, 3, 1, 1, rng));
  repl.push_back(std::make_unique<Conv2d>(8, 4, 1, 1, 0, rng));
  m.replace_layer(0, std::move(repl));
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.shape_after(1), (Shape{4, 8, 8}));
}

TEST(Model, RemoveAndTakeLayer) {
  Model m = tiny_chain();
  auto taken = m.take_layer(1);
  EXPECT_EQ(taken->spec().type, "relu");
  EXPECT_EQ(m.size(), 4u);
  m.remove_layer(0);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_THROW(m.remove_layer(99), std::out_of_range);
}

TEST(Model, SummaryMentionsEveryLayer) {
  const std::string s = tiny_chain().summary();
  EXPECT_NE(s.find("conv"), std::string::npos);
  EXPECT_NE(s.find("maxpool"), std::string::npos);
  EXPECT_NE(s.find("fc"), std::string::npos);
}

TEST(Loss, CrossEntropyUniformLogits) {
  const Tensor logits({1, 4});
  const LossResult r = cross_entropy(logits, {2});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
  EXPECT_NEAR(r.grad(0, 2), 0.25f - 1.0f, 1e-5f);
  EXPECT_NEAR(r.grad(0, 0), 0.25f, 1e-5f);
}

TEST(Loss, CrossEntropyGradSumsToZero) {
  util::Rng rng(44);
  const Tensor logits = Tensor::randn({3, 5}, rng);
  const LossResult r = cross_entropy(logits, {0, 2, 4});
  EXPECT_NEAR(r.grad.sum(), 0.0f, 1e-5f);
}

TEST(Loss, CrossEntropyRejectsBadLabels) {
  EXPECT_THROW(cross_entropy(Tensor({1, 3}), {5}), std::invalid_argument);
  EXPECT_THROW(cross_entropy(Tensor({2, 3}), {0}), std::invalid_argument);
}

TEST(Loss, DistillationZeroWhenStudentMatchesTeacher) {
  util::Rng rng(45);
  const Tensor logits = Tensor::randn({2, 4}, rng);
  const LossResult r = distillation_loss(logits, logits, {0, 1}, 4.0, 1.0);
  EXPECT_NEAR(r.loss, 0.0, 1e-6);
  EXPECT_LT(r.grad.abs_max(), 1e-5f);
}

TEST(Loss, DistillationPullsTowardTeacher) {
  // Student uniform, teacher prefers class 0: gradient on class-0 logit is
  // negative (increase it).
  const Tensor student({1, 3});
  const Tensor teacher({1, 3}, {4.0f, 0.0f, 0.0f});
  const LossResult r = distillation_loss(student, teacher, {0}, 2.0, 1.0);
  EXPECT_GT(r.loss, 0.0);
  EXPECT_LT(r.grad(0, 0), 0.0f);
}

TEST(Loss, AccuracyMetric) {
  const Tensor logits({2, 3}, {5, 0, 0, 0, 0, 5});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 2}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 2}), 0.5);
}

TEST(Optimizer, SgdStepsDownhill) {
  // Minimize f(w) = w^2 by hand-computed gradient 2w.
  Tensor w = Tensor::from_values({4.0f});
  Tensor g({1});
  Sgd sgd(0.1);
  for (int i = 0; i < 50; ++i) {
    g(0) = 2.0f * w(0);
    sgd.step({&w}, {&g});
  }
  EXPECT_NEAR(w(0), 0.0f, 1e-3f);
}

TEST(Optimizer, MomentumAcceleratesDescent) {
  Tensor w1 = Tensor::from_values({4.0f});
  Tensor w2 = Tensor::from_values({4.0f});
  Tensor g({1});
  Sgd plain(0.01), momentum(0.01, 0.9);
  for (int i = 0; i < 20; ++i) {
    g(0) = 2.0f * w1(0);
    plain.step({&w1}, {&g});
    g(0) = 2.0f * w2(0);
    momentum.step({&w2}, {&g});
  }
  EXPECT_LT(std::fabs(w2(0)), std::fabs(w1(0)));
}

TEST(Optimizer, WeightDecayShrinksWeights) {
  Tensor w = Tensor::from_values({1.0f});
  Tensor g({1});  // zero gradient: only decay acts
  Sgd sgd(0.1, 0.0, 0.5);
  sgd.step({&w}, {&g});
  EXPECT_LT(w(0), 1.0f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Tensor w = Tensor::from_values({4.0f, -3.0f});
  Tensor g({2});
  Adam adam(0.2);
  for (int i = 0; i < 200; ++i) {
    g(0) = 2.0f * w(0);
    g(1) = 2.0f * w(1);
    adam.step({&w}, {&g});
  }
  EXPECT_NEAR(w(0), 0.0f, 1e-2f);
  EXPECT_NEAR(w(1), 0.0f, 1e-2f);
}

TEST(Optimizer, ClipGradNorm) {
  Tensor g = Tensor::from_values({3.0f, 4.0f});  // norm 5
  const double norm = clip_grad_norm({&g}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(g.l2_norm(), 1.0f, 1e-5f);
}

TEST(Optimizer, MismatchedSizesThrow) {
  Tensor w({1}), g({1});
  Sgd sgd(0.1);
  EXPECT_THROW(sgd.step({&w}, {}), std::invalid_argument);
}

TEST(Training, MlpLearnsSeparableTask) {
  // Two Gaussian blobs in 4-D; an MLP should reach near-perfect accuracy.
  util::Rng rng(46);
  const int n = 128;
  Tensor x({n, 4});
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    labels[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 4; ++d)
      x(i, d) = static_cast<float>(rng.normal(label ? 1.5 : -1.5, 1.0));
  }
  Model mlp = make_mlp(4, 16, 2, /*seed=*/47);
  Sgd sgd(0.05, 0.9);
  double first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 150; ++step) {
    const Tensor logits = mlp.forward_train(x);
    const LossResult loss = cross_entropy(logits, labels);
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
    mlp.zero_grad();
    mlp.backward(loss.grad);
    sgd.step(mlp.params(), mlp.grads());
  }
  EXPECT_LT(last_loss, first_loss * 0.2);
  EXPECT_GT(accuracy(mlp.forward(x), labels), 0.95);
}

TEST(Training, DistillationTransfersTeacherBehaviour) {
  // Teacher = trained MLP; student distilled from teacher logits alone
  // should agree with the teacher on most inputs.
  util::Rng rng(48);
  const int n = 96;
  Tensor x({n, 3});
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    labels[static_cast<std::size_t>(i)] = label;
    for (int d = 0; d < 3; ++d)
      x(i, d) = static_cast<float>(rng.normal(label ? 1.0 : -1.0, 0.7));
  }
  Model teacher = make_mlp(3, 16, 2, 49);
  Sgd sgd(0.05, 0.9);
  for (int step = 0; step < 120; ++step) {
    const LossResult loss = cross_entropy(teacher.forward_train(x), labels);
    teacher.zero_grad();
    teacher.backward(loss.grad);
    sgd.step(teacher.params(), teacher.grads());
  }
  Model student = make_mlp(3, 8, 2, 50);
  Sgd student_sgd(0.05, 0.9);
  const Tensor teacher_logits = teacher.forward(x);
  for (int step = 0; step < 200; ++step) {
    const Tensor logits = student.forward_train(x);
    const LossResult loss =
        distillation_loss(logits, teacher_logits, labels, 3.0, 1.0);
    student.zero_grad();
    student.backward(loss.grad);
    student_sgd.step(student.params(), student.grads());
  }
  const Tensor t_out = teacher.forward(x);
  const Tensor s_out = student.forward(x);
  int agree = 0;
  for (int i = 0; i < n; ++i) {
    int t_best = t_out(i, 0) > t_out(i, 1) ? 0 : 1;
    int s_best = s_out(i, 0) > s_out(i, 1) ? 0 : 1;
    agree += t_best == s_best;
  }
  EXPECT_GT(static_cast<double>(agree) / n, 0.9);
}

}  // namespace
}  // namespace cadmc::nn
