// Parameter-free layers: ReLU, ReLU6, Flatten, Dropout.
#pragma once

#include "nn/layer.h"
#include "util/rng.h"

namespace cadmc::nn {

class ReLU : public Layer {
 public:
  /// cap <= 0 means plain ReLU; cap = 6 gives ReLU6 (MobileNetV2).
  explicit ReLU(float cap = 0.0f) : cap_(cap) {}

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::unique_ptr<Layer> clone() const override;

 private:
  float cap_;
  Tensor cached_input_;
};

/// [N,C,H,W] -> [N,C*H*W]; no-op on already-flat [N,D] inputs.
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_shape_;
};

/// Inverted dropout; identity at inference time.
class Dropout : public Layer {
 public:
  Dropout(double drop_prob, std::uint64_t seed);

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::unique_ptr<Layer> clone() const override;

 private:
  double drop_prob_;
  util::Rng rng_;
  Tensor mask_;
};

}  // namespace cadmc::nn
