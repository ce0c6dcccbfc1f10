// Fully-connected layer y = W x + b, operating on [N, in] tensors.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace cadmc::nn {

class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, util::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macc(const Shape& in) const override;  // Eqn. (5): Cin*Cout
  std::unique_ptr<Layer> clone() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  Tensor& weight() { return weight_; }          // [out, in]
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Fraction of exactly-zero weights (F2 sparsity reporting).
  double sparsity() const;

 private:
  int in_features_, out_features_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;  // set by forward_train; empty until then
};

}  // namespace cadmc::nn
