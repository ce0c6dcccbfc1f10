// First-order optimizers over a parameter/gradient set. Used both for the
// DNN substrate (training composed models with distillation) and for the
// LSTM controllers (policy-gradient ascent).
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace cadmc::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update using the current gradients, then leaves gradients
  /// untouched (callers zero them).
  virtual void step(const std::vector<tensor::Tensor*>& params,
                    const std::vector<tensor::Tensor*>& grads) = 0;
};

class Sgd : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0, double weight_decay = 0.0);
  void step(const std::vector<tensor::Tensor*>& params,
            const std::vector<tensor::Tensor*>& grads) override;

 private:
  double lr_, momentum_, weight_decay_;
  std::vector<tensor::Tensor> velocity_;
};

class Adam : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(const std::vector<tensor::Tensor*>& params,
            const std::vector<tensor::Tensor*>& grads) override;

 private:
  double lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<tensor::Tensor> m_, v_;
};

/// Global gradient-norm clipping; returns the pre-clip norm.
double clip_grad_norm(const std::vector<tensor::Tensor*>& grads,
                      double max_norm);

}  // namespace cadmc::nn
