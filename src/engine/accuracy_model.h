// Accuracy estimation for transformed models.
//
// The paper trains each composed DNN (with knowledge distillation) and
// measures its CIFAR10 accuracy. Training VGG11-scale models is outside this
// repo's compute budget (see DESIGN.md substitutions), so the default is a
// calibrated analytic model: each applied compression contributes a
// technique- and depth-dependent post-retraining degradation, combined with
// diminishing returns. The calibration reproduces the paper's structure —
// base accuracies 92.01% (VGG11) / 84.04% (AlexNet) and ~0.3-1.5% loss for
// the strategies the search typically selects.
//
// For miniature models, RealAccuracyEvaluator measures accuracy by actually
// training (with distillation against the base model) and evaluating on
// SynthCIFAR — the same code path, real numbers (used in tests/examples).
#pragma once

#include <vector>

#include "compress/transform.h"
#include "data/dataloader.h"
#include "nn/model.h"

namespace cadmc::engine {

class AccuracyModel {
 public:
  /// `base_accuracy` in [0,1]; `seed` drives the deterministic per-(layer,
  /// technique) jitter that gives the search landscape texture.
  AccuracyModel(double base_accuracy, std::size_t base_layer_count,
                std::uint64_t seed);

  double base_accuracy() const { return base_; }

  /// Estimated accuracy after applying `plan[i]` to base layer i
  /// (kNone = untouched). plan.size() must equal base_layer_count.
  double estimate(const std::vector<compress::TechniqueId>& plan) const;

  /// Degradation contributed by one (layer, technique) pair.
  double unit_degradation(std::size_t layer, compress::TechniqueId id) const;

 private:
  double base_;
  std::size_t layers_;
  std::uint64_t seed_;
};

/// Measures accuracy of a (small) composed model by distillation-training it
/// against the base model on SynthCIFAR and evaluating on a held-out range.
class RealAccuracyEvaluator {
 public:
  RealAccuracyEvaluator(nn::Model base, const data::SynthCifar& dataset,
                        int train_examples, int eval_examples, int batch_size,
                        int train_steps, double lr);

  /// Distills `candidate` from the base model, then returns eval accuracy.
  /// The candidate is modified (trained) in place.
  double train_and_evaluate(nn::Model& candidate) const;

  /// Accuracy of the (already trained) base model on the eval split.
  double base_accuracy() const;

 private:
  double evaluate(const nn::Model& model) const;

  nn::Model base_;
  const data::SynthCifar& dataset_;
  int train_examples_, eval_examples_, batch_size_, train_steps_;
  double lr_;
};

}  // namespace cadmc::engine
