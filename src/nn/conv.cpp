#include "nn/conv.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cadmc::nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, util::Rng& rng, int groups, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      groups_(groups),
      has_bias_(bias) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      padding < 0 || groups <= 0)
    throw std::invalid_argument("Conv2d: invalid hyper-parameters");
  if (in_channels % groups != 0 || out_channels % groups != 0)
    throw std::invalid_argument("Conv2d: channels not divisible by groups");
  const int cig = in_channels / groups;
  const float fan_in = static_cast<float>(cig * kernel * kernel);
  // Kaiming-He initialization for ReLU networks.
  weight_ = Tensor::randn({out_channels, cig, kernel, kernel}, rng,
                          std::sqrt(2.0f / fan_in));
  weight_grad_ = Tensor(weight_.shape());
  if (has_bias_) {
    bias_ = Tensor({out_channels});
    bias_grad_ = Tensor({out_channels});
  }
}

Tensor Conv2d::forward(const Tensor& input) const {
  tensor::Conv2dSpec cspec{stride_, padding_, groups_};
  return tensor::conv2d(input, weight_, bias_, cspec);
}

Tensor Conv2d::forward_train(const Tensor& input) {
  cached_input_ = input;
  return forward(input);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty())
    throw std::logic_error(
        "Conv2d::backward: no cached input — call forward_train before "
        "backward");
  tensor::Conv2dSpec cspec{stride_, padding_, groups_};
  auto grads =
      tensor::conv2d_backward(cached_input_, weight_, has_bias_, grad_out, cspec);
  weight_grad_.add_(grads.weight);
  if (has_bias_) bias_grad_.add_(grads.bias);
  return std::move(grads.input);
}

std::vector<Tensor*> Conv2d::params() {
  std::vector<Tensor*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

std::vector<Tensor*> Conv2d::grads() {
  std::vector<Tensor*> out{&weight_grad_};
  if (has_bias_) out.push_back(&bias_grad_);
  return out;
}

LayerSpec Conv2d::spec() const {
  return LayerSpec{"conv", kernel_, stride_, padding_, out_channels_};
}

std::string Conv2d::name() const {
  if (groups_ == in_channels_ && groups_ > 1) return "conv_dw";
  if (groups_ > 1) return "conv_g" + std::to_string(groups_);
  return "conv";
}

Shape Conv2d::output_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_channels_)
    throw std::invalid_argument("Conv2d: incompatible input shape");
  return {out_channels_,
          tensor::conv_out_size(in[1], kernel_, stride_, padding_),
          tensor::conv_out_size(in[2], kernel_, stride_, padding_)};
}

std::int64_t Conv2d::macc(const Shape& in) const {
  // Eqn. (4): K*K*Cin*Cout*Hout*Wout, divided by groups for grouped convs.
  const Shape out = output_shape(in);
  return static_cast<std::int64_t>(kernel_) * kernel_ *
         (in_channels_ / groups_) * out_channels_ * out[1] * out[2];
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::make_unique<Conv2d>(*this);
}

void Conv2d::zero_filters(const std::vector<int>& filter_indices) {
  // Filter f is one contiguous [cig*k*k] row of weight_; operate on row
  // spans instead of per-element at() calls.
  const std::size_t per_filter =
      static_cast<std::size_t>(weight_.numel() / out_channels_);
  float* w = weight_.data().data();
  for (int f : filter_indices) {
    if (f < 0 || f >= out_channels_)
      throw std::out_of_range("Conv2d::zero_filters: bad index");
    std::fill_n(w + static_cast<std::size_t>(f) * per_filter, per_filter,
                0.0f);
    if (has_bias_) bias_.at(f) = 0.0f;
  }
}

void Conv2d::keep_filters(const std::vector<int>& filter_indices) {
  if (filter_indices.empty())
    throw std::invalid_argument("Conv2d::keep_filters: empty set");
  const int cig = in_channels_ / groups_;
  if (groups_ != 1)
    throw std::invalid_argument("Conv2d::keep_filters: grouped conv unsupported");
  const int new_out = static_cast<int>(filter_indices.size());
  Tensor new_weight({new_out, cig, kernel_, kernel_});
  Tensor new_bias = has_bias_ ? Tensor({new_out}) : Tensor();
  const std::size_t per_filter =
      static_cast<std::size_t>(cig) * kernel_ * kernel_;
  const float* src = weight_.data().data();
  float* dst = new_weight.data().data();
  for (int nf = 0; nf < new_out; ++nf) {
    const int f = filter_indices[static_cast<std::size_t>(nf)];
    if (f < 0 || f >= out_channels_)
      throw std::out_of_range("Conv2d::keep_filters: bad index");
    std::copy_n(src + static_cast<std::size_t>(f) * per_filter, per_filter,
                dst + static_cast<std::size_t>(nf) * per_filter);
    if (has_bias_) new_bias(nf) = bias_(f);
  }
  out_channels_ = new_out;
  weight_ = std::move(new_weight);
  weight_grad_ = Tensor(weight_.shape());
  if (has_bias_) {
    bias_ = std::move(new_bias);
    bias_grad_ = Tensor({new_out});
  }
}

void Conv2d::keep_input_channels(const std::vector<int>& channel_indices) {
  if (groups_ != 1)
    throw std::invalid_argument("Conv2d::keep_input_channels: grouped conv unsupported");
  const int new_in = static_cast<int>(channel_indices.size());
  if (new_in <= 0) throw std::invalid_argument("Conv2d::keep_input_channels: empty");
  Tensor new_weight({out_channels_, new_in, kernel_, kernel_});
  // Per (filter, channel) the k*k patch is contiguous in both tensors.
  const std::size_t ksq = static_cast<std::size_t>(kernel_) * kernel_;
  const float* src = weight_.data().data();
  float* dst = new_weight.data().data();
  for (int f = 0; f < out_channels_; ++f)
    for (int nc = 0; nc < new_in; ++nc) {
      const int c = channel_indices[static_cast<std::size_t>(nc)];
      if (c < 0 || c >= in_channels_)
        throw std::out_of_range("Conv2d::keep_input_channels: bad index");
      std::copy_n(
          src + (static_cast<std::size_t>(f) * in_channels_ + c) * ksq, ksq,
          dst + (static_cast<std::size_t>(f) * new_in + nc) * ksq);
    }
  in_channels_ = new_in;
  weight_ = std::move(new_weight);
  weight_grad_ = Tensor(weight_.shape());
}

std::vector<double> Conv2d::filter_saliency() const {
  std::vector<double> saliency(static_cast<std::size_t>(out_channels_), 0.0);
  const std::size_t per_filter =
      static_cast<std::size_t>(weight_.numel() / out_channels_);
  const float* w = weight_.data().data();
  for (int f = 0; f < out_channels_; ++f) {
    const float* row = w + static_cast<std::size_t>(f) * per_filter;
    double s = 0.0;
    for (std::size_t i = 0; i < per_filter; ++i) s += std::fabs(row[i]);
    saliency[static_cast<std::size_t>(f)] = s / static_cast<double>(per_filter);
  }
  return saliency;
}

}  // namespace cadmc::nn
