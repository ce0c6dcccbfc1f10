#include "nn/linear.h"

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "tensor/ops.h"

namespace cadmc::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng, bool bias)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Linear: invalid dimensions");
  weight_ = Tensor::randn({out_features, in_features}, rng,
                          std::sqrt(2.0f / static_cast<float>(in_features)));
  weight_grad_ = Tensor(weight_.shape());
  if (has_bias_) {
    bias_ = Tensor({out_features});
    bias_grad_ = Tensor({out_features});
  }
}

Tensor Linear::forward(const Tensor& input) const {
  if (input.rank() != 2 || input.dim(1) != in_features_)
    throw std::invalid_argument("Linear: expected [N," +
                                std::to_string(in_features_) + "] input");
  Tensor out = tensor::matmul_nt(input, weight_);  // [N, out]
  if (has_bias_) {
    const int n = out.dim(0);
    const float* __restrict b = bias_.data().data();
    for (int i = 0; i < n; ++i) {
      float* __restrict row = out.data().data() +
                              static_cast<std::ptrdiff_t>(i) * out_features_;
      for (int j = 0; j < out_features_; ++j) row[j] += b[j];
    }
  }
  return out;
}

Tensor Linear::forward_train(const Tensor& input) {
  cached_input_ = input;
  return forward(input);
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error(
        "Linear::backward: no cached input — call forward_train before "
        "backward");
  // dW = grad_out^T [N,out]^T * input [N,in] -> [out,in]
  weight_grad_.add_(tensor::matmul_tn(grad_out, cached_input_));
  if (has_bias_) {
    const int n = grad_out.dim(0);
    float* __restrict bg = bias_grad_.data().data();
    for (int i = 0; i < n; ++i) {
      const float* __restrict row =
          grad_out.data().data() +
          static_cast<std::ptrdiff_t>(i) * out_features_;
      for (int j = 0; j < out_features_; ++j) bg[j] += row[j];
    }
  }
  // dX = grad_out [N,out] * W [out,in] -> [N,in]
  return tensor::matmul(grad_out, weight_);
}

std::vector<Tensor*> Linear::params() {
  std::vector<Tensor*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

std::vector<Tensor*> Linear::grads() {
  std::vector<Tensor*> out{&weight_grad_};
  if (has_bias_) out.push_back(&bias_grad_);
  return out;
}

LayerSpec Linear::spec() const {
  return LayerSpec{"fc", 0, 0, 0, out_features_};
}

Shape Linear::output_shape(const Shape& in) const {
  if (in.size() != 1 || in[0] != in_features_)
    throw std::invalid_argument("Linear: incompatible input shape");
  return {out_features_};
}

std::int64_t Linear::macc(const Shape& in) const {
  (void)in;
  return static_cast<std::int64_t>(in_features_) * out_features_;
}

std::unique_ptr<Layer> Linear::clone() const {
  return std::make_unique<Linear>(*this);
}

double Linear::sparsity() const {
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < weight_.numel(); ++i)
    if (weight_.at(i) == 0.0f) ++zeros;
  return weight_.numel() ? static_cast<double>(zeros) /
                               static_cast<double>(weight_.numel())
                         : 0.0;
}

}  // namespace cadmc::nn
