// 2-D convolution layer (optionally grouped / depthwise) with Kaiming
// initialization and full backward pass.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace cadmc::nn {

class Conv2d : public Layer {
 public:
  /// groups == in_channels gives a depthwise convolution (MobileNet C1).
  Conv2d(int in_channels, int out_channels, int kernel, int stride,
         int padding, util::Rng& rng, int groups = 1, bool bias = true);

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

  LayerSpec spec() const override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macc(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int padding() const { return padding_; }
  int groups() const { return groups_; }

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Zeroes the given output filters (used by W1 filter pruning).
  void zero_filters(const std::vector<int>& filter_indices);

  /// Keeps only the listed output filters, shrinking the layer.
  void keep_filters(const std::vector<int>& filter_indices);

  /// Shrinks input channels to the listed subset (to follow a pruned
  /// predecessor layer).
  void keep_input_channels(const std::vector<int>& channel_indices);

  /// Mean absolute weight per output filter — the W1 pruning saliency.
  std::vector<double> filter_saliency() const;

 private:
  int in_channels_, out_channels_, kernel_, stride_, padding_, groups_;
  bool has_bias_;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;  // set by forward_train; empty until then
};

}  // namespace cadmc::nn
