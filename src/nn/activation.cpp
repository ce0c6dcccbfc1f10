#include "nn/activation.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace cadmc::nn {

Tensor ReLU::forward(const Tensor& input) const {
  return tensor::relu(input, cap_);
}

Tensor ReLU::forward_train(const Tensor& input) {
  cached_input_ = input;
  return forward(input);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  return tensor::relu_backward(cached_input_, grad_out, cap_);
}

LayerSpec ReLU::spec() const {
  return LayerSpec{cap_ > 0.0f ? "relu6" : "relu", 0, 0, 0, 0};
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(*this);
}

Tensor Flatten::forward(const Tensor& input) const {
  if (input.rank() == 2) return input;
  const int n = input.dim(0);
  const int d = static_cast<int>(input.numel() / n);
  return input.reshaped({n, d});
}

Tensor Flatten::forward_train(const Tensor& input) {
  cached_shape_ = input.shape();
  return forward(input);
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

LayerSpec Flatten::spec() const { return LayerSpec{"flatten", 0, 0, 0, 0}; }

Shape Flatten::output_shape(const Shape& in) const {
  int d = 1;
  for (int v : in) d *= v;
  return {d};
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(*this);
}

Dropout::Dropout(double drop_prob, std::uint64_t seed)
    : drop_prob_(drop_prob), rng_(seed) {
  if (drop_prob < 0.0 || drop_prob >= 1.0)
    throw std::invalid_argument("Dropout: p must be in [0,1)");
}

Tensor Dropout::forward(const Tensor& input) const { return input; }

Tensor Dropout::forward_train(const Tensor& input) {
  if (drop_prob_ == 0.0) return input;
  mask_ = Tensor(input.shape());
  const float scale = static_cast<float>(1.0 / (1.0 - drop_prob_));
  Tensor out = input;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const bool keep = !rng_.bernoulli(drop_prob_);
    mask_.at(i) = keep ? scale : 0.0f;
    out.at(i) *= mask_.at(i);
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  Tensor grad_in = grad_out;
  for (std::int64_t i = 0; i < grad_in.numel(); ++i) grad_in.at(i) *= mask_.at(i);
  return grad_in;
}

LayerSpec Dropout::spec() const { return LayerSpec{"dropout", 0, 0, 0, 0}; }

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(*this);
}

}  // namespace cadmc::nn
