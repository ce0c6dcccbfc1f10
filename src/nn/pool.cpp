#include "nn/pool.h"

#include <stdexcept>
#include <utility>

namespace cadmc::nn {

MaxPool2d::MaxPool2d(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  if (kernel <= 0 || stride <= 0)
    throw std::invalid_argument("MaxPool2d: invalid hyper-parameters");
}

Tensor MaxPool2d::forward(const Tensor& input) const {
  // Inference skips the argmax side-output entirely (and unlocks the
  // vectorized fast-mode row kernel).
  return std::move(
      tensor::maxpool2d(input, kernel_, stride_, /*with_argmax=*/false).output);
}

Tensor MaxPool2d::forward_train(const Tensor& input) {
  // Training keeps only shape + argmax — never the input activation itself.
  auto result = tensor::maxpool2d(input, kernel_, stride_, /*with_argmax=*/true);
  cached_shape_ = input.shape();
  cached_argmax_ = std::move(result.argmax);
  return std::move(result.output);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (cached_shape_.empty())
    throw std::logic_error(
        "MaxPool2d::backward: no cached argmax — call forward_train before "
        "backward");
  Tensor grad_in =
      tensor::maxpool2d_backward(cached_shape_, cached_argmax_, grad_out);
  cached_shape_.clear();
  cached_argmax_.clear();
  cached_argmax_.shrink_to_fit();
  return grad_in;
}

LayerSpec MaxPool2d::spec() const {
  return LayerSpec{"maxpool", kernel_, stride_, 0, 0};
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  if (in.size() != 3) throw std::invalid_argument("MaxPool2d: expected {c,h,w}");
  const int ho = tensor::conv_out_size(in[1], kernel_, stride_, 0);
  const int wo = tensor::conv_out_size(in[2], kernel_, stride_, 0);
  if (ho <= 0 || wo <= 0) throw std::invalid_argument("MaxPool2d: empty output");
  return {in[0], ho, wo};
}

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(*this);
}

Tensor GlobalAvgPool::forward(const Tensor& input) const {
  return tensor::global_avgpool(input);
}

Tensor GlobalAvgPool::forward_train(const Tensor& input) {
  cached_shape_ = input.shape();
  return forward(input);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  if (cached_shape_.empty())
    throw std::logic_error(
        "GlobalAvgPool::backward: no cached shape — call forward_train "
        "before backward");
  return tensor::global_avgpool_backward(std::exchange(cached_shape_, {}),
                                         grad_out);
}

LayerSpec GlobalAvgPool::spec() const {
  return LayerSpec{"gap", 0, 0, 0, 0};
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  if (in.size() != 3) throw std::invalid_argument("GlobalAvgPool: expected {c,h,w}");
  return {in[0]};
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>(*this);
}

}  // namespace cadmc::nn
