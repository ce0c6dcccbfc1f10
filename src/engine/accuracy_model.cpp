#include "engine/accuracy_model.h"

#include <cmath>
#include <stdexcept>

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/span.h"
#include "util/rng.h"

namespace cadmc::engine {

namespace {
/// Post-distillation accuracy cost of each technique on a mid-depth layer,
/// calibrated to the paper's observed ~1% total loss (Tables IV/V).
double technique_base_cost(compress::TechniqueId id) {
  using compress::TechniqueId;
  switch (id) {
    case TechniqueId::kNone: return 0.0;
    case TechniqueId::kF1Svd: return 0.0025;
    case TechniqueId::kF2Ksvd: return 0.0038;
    case TechniqueId::kF3Gap: return 0.0050;
    case TechniqueId::kC1MobileNet: return 0.0055;
    case TechniqueId::kC2MobileNetV2: return 0.0045;
    case TechniqueId::kC3SqueezeNet: return 0.0062;
    case TechniqueId::kW1FilterPrune: return 0.0032;
    case TechniqueId::kQ1Quantize: return 0.0018;
  }
  throw std::invalid_argument("technique_base_cost: bad id");
}
}  // namespace

AccuracyModel::AccuracyModel(double base_accuracy,
                             std::size_t base_layer_count, std::uint64_t seed)
    : base_(base_accuracy), layers_(base_layer_count), seed_(seed) {
  if (base_accuracy <= 0.0 || base_accuracy > 1.0 || base_layer_count == 0)
    throw std::invalid_argument("AccuracyModel: invalid parameters");
}

double AccuracyModel::unit_degradation(std::size_t layer,
                                       compress::TechniqueId id) const {
  if (id == compress::TechniqueId::kNone) return 0.0;
  if (layer >= layers_) throw std::out_of_range("AccuracyModel: layer");
  // Early layers are more sensitive to structural surgery than late ones.
  const double depth_frac =
      layers_ > 1 ? static_cast<double>(layer) / static_cast<double>(layers_ - 1)
                  : 0.0;
  const double depth_factor = 1.3 - 0.6 * depth_frac;
  // Deterministic per-(layer, technique) jitter in [0.8, 1.2): retraining
  // outcomes differ per site, but identically every time we ask.
  std::uint64_t h = seed_ ^ (layer * 0x9E3779B97f4A7C15ULL) ^
                    (static_cast<std::uint64_t>(id) * 0xBF58476D1CE4E5B9ULL);
  const double jitter = 0.8 + 0.4 * (static_cast<double>(util::splitmix64(h) >> 11) * 0x1.0p-53);
  return technique_base_cost(id) * depth_factor * jitter;
}

double AccuracyModel::estimate(
    const std::vector<compress::TechniqueId>& plan) const {
  if (plan.size() != layers_)
    throw std::invalid_argument("AccuracyModel::estimate: plan size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < plan.size(); ++i)
    sum += unit_degradation(i, plan[i]);
  // Compounding: each structural change degrades the representation the
  // following (also rewritten) layers were distilled against, so joint
  // losses grow superlinearly — this is what keeps the searched strategies
  // near the paper's ~1% loss instead of compressing every layer.
  constexpr double kInteraction = 0.010;  // quadratic onset scale
  constexpr double kMaxLoss = 0.25;      // distillation always recovers this much
  const double loss = std::min(kMaxLoss, sum + sum * sum / kInteraction);
  return base_ - loss;
}

RealAccuracyEvaluator::RealAccuracyEvaluator(nn::Model base,
                                             const data::SynthCifar& dataset,
                                             int train_examples,
                                             int eval_examples, int batch_size,
                                             int train_steps, double lr)
    : base_(std::move(base)),
      dataset_(dataset),
      train_examples_(train_examples),
      eval_examples_(eval_examples),
      batch_size_(batch_size),
      train_steps_(train_steps),
      lr_(lr) {
  if (train_examples <= 0 || eval_examples <= 0 || batch_size <= 0)
    throw std::invalid_argument("RealAccuracyEvaluator: invalid sizes");
}

double RealAccuracyEvaluator::train_and_evaluate(nn::Model& candidate) const {
  CADMC_SPAN("distill_train");
  data::DataLoader loader(dataset_, 0, train_examples_, batch_size_);
  nn::Sgd optimizer(lr_, 0.9);
  for (int step = 0; step < train_steps_; ++step) {
    const auto batch = loader.batch(step);
    // Knowledge distillation (Sec. VI-D): soft targets from the base model.
    const tensor::Tensor teacher = base_.forward(batch.images);
    const tensor::Tensor logits = candidate.forward_train(batch.images);
    const nn::LossResult loss =
        nn::distillation_loss(logits, teacher, batch.labels);
    candidate.zero_grad();
    candidate.backward(loss.grad);
    // Temperature-scaled distillation gradients are ~T times larger than CE
    // gradients; clip so momentum SGD stays stable at CE-tuned rates.
    nn::clip_grad_norm(candidate.grads(), 5.0);
    optimizer.step(candidate.params(), candidate.grads());
  }
  return evaluate(candidate);
}

double RealAccuracyEvaluator::base_accuracy() const { return evaluate(base_); }

double RealAccuracyEvaluator::evaluate(const nn::Model& model) const {
  data::DataLoader loader(dataset_, train_examples_,
                          train_examples_ + eval_examples_, batch_size_);
  double correct_weighted = 0.0;
  int batches = loader.batches_per_epoch();
  for (int b = 0; b < batches; ++b) {
    const auto batch = loader.batch(b);
    const tensor::Tensor logits = model.forward(batch.images);
    correct_weighted += nn::accuracy(logits, batch.labels);
  }
  return batches > 0 ? correct_weighted / batches : 0.0;
}

}  // namespace cadmc::engine
