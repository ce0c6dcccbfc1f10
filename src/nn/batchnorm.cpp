#include "nn/batchnorm.h"

#include <stdexcept>
#include <utility>

#include "tensor/ops.h"

namespace cadmc::nn {

BatchNorm2d::BatchNorm2d(int channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  if (channels <= 0) throw std::invalid_argument("BatchNorm2d: channels <= 0");
  gamma_ = Tensor::ones({channels});
  beta_ = Tensor({channels});
  gamma_grad_ = Tensor({channels});
  beta_grad_ = Tensor({channels});
  running_mean_ = Tensor({channels});
  running_var_ = Tensor::ones({channels});
}

Tensor BatchNorm2d::forward(const Tensor& input) const {
  if (input.rank() != 4 || input.dim(1) != channels_)
    throw std::invalid_argument("BatchNorm2d: expected [N,C,H,W] input");
  return tensor::batchnorm2d_infer(input, gamma_, beta_, running_mean_,
                                   running_var_, eps_);
}

Tensor BatchNorm2d::forward_train(const Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != channels_)
    throw std::invalid_argument("BatchNorm2d: expected [N,C,H,W] input");
  auto fwd = tensor::batchnorm2d_train(input, gamma_, beta_, eps_);
  cached_norm_ = std::move(fwd.norm);
  cached_inv_std_ = std::move(fwd.inv_std);
  for (int c = 0; c < channels_; ++c) {
    running_mean_(c) = (1.0f - momentum_) * running_mean_(c) +
                       momentum_ * fwd.mean[static_cast<std::size_t>(c)];
    running_var_(c) = (1.0f - momentum_) * running_var_(c) +
                      momentum_ * fwd.var[static_cast<std::size_t>(c)];
  }
  return std::move(fwd.output);
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  auto grads =
      tensor::batchnorm2d_backward(grad_out, cached_norm_, gamma_, cached_inv_std_);
  for (int c = 0; c < channels_; ++c) {
    gamma_grad_(c) += grads.gamma(c);
    beta_grad_(c) += grads.beta(c);
  }
  return std::move(grads.input);
}

LayerSpec BatchNorm2d::spec() const {
  return LayerSpec{"bn", 0, 0, 0, channels_};
}

Shape BatchNorm2d::output_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != channels_)
    throw std::invalid_argument("BatchNorm2d: incompatible input shape");
  return in;
}

std::unique_ptr<Layer> BatchNorm2d::clone() const {
  return std::make_unique<BatchNorm2d>(*this);
}

}  // namespace cadmc::nn
