// 2-D batch normalization with running statistics. MACC cost is negligible
// per the paper's measurements (Sec. V-B), so macc() stays 0.
#pragma once

#include "nn/layer.h"

namespace cadmc::nn {

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> grads() override { return {&gamma_grad_, &beta_grad_}; }

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int channels() const { return channels_; }

 private:
  int channels_;
  float momentum_, eps_;
  Tensor gamma_, beta_, gamma_grad_, beta_grad_;
  Tensor running_mean_, running_var_;
  // Caches for backward: the normalized activations and per-channel 1/std.
  // The raw input is never retained — backward only needs norm and inv_std.
  Tensor cached_norm_;
  std::vector<float> cached_inv_std_;
};

}  // namespace cadmc::nn
