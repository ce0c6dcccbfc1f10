// Composite layers. These realize the structural compression targets of
// Table II and the residual blocks used by the ResNet factory:
//  * SequentialBlock — a named sub-chain of layers that acts as one Layer
//    (used for the MobileNet depthwise-separable replacement and the
//    low-rank FC factorizations),
//  * Fire — SqueezeNet's squeeze/expand module (C3),
//  * InvertedResidual — MobileNetV2's block (C2),
//  * ResidualBlock — basic/bottleneck residual units for ResNet-50/101/152.
#pragma once

#include "nn/conv.h"
#include "nn/layer.h"

namespace cadmc::nn {

class SequentialBlock : public Layer {
 public:
  SequentialBlock(std::string name, std::vector<std::unique_ptr<Layer>> layers,
                  LayerSpec spec);

  SequentialBlock(const SequentialBlock& other);
  SequentialBlock& operator=(const SequentialBlock&) = delete;

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

  LayerSpec spec() const override { return spec_; }
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& in) const override;
  std::int64_t macc(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
  LayerSpec spec_;
};

/// SqueezeNet Fire module: 1x1 squeeze then concatenated 1x1/3x3 expands.
class Fire : public Layer {
 public:
  Fire(int in_channels, int squeeze_channels, int expand_channels,
       util::Rng& rng);
  Fire(const Fire& other);
  Fire& operator=(const Fire&) = delete;

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

  LayerSpec spec() const override;
  std::string name() const override { return "fire"; }
  Shape output_shape(const Shape& in) const override;
  std::int64_t macc(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int out_channels() const { return 2 * expand_channels_; }

 private:
  int in_channels_, squeeze_channels_, expand_channels_;
  std::unique_ptr<Conv2d> squeeze_, expand1_, expand3_;
  Tensor squeeze_out_;       // post-ReLU squeeze activation (cached)
  Tensor expand1_out_, expand3_out_;  // pre-ReLU expand outputs (cached)
};

/// MobileNetV2 inverted residual: expand 1x1 -> depthwise 3x3 -> project 1x1,
/// with a skip connection when the shapes allow it.
class InvertedResidual : public Layer {
 public:
  InvertedResidual(int in_channels, int out_channels, int expansion,
                   int stride, util::Rng& rng);
  InvertedResidual(const InvertedResidual& other);
  InvertedResidual& operator=(const InvertedResidual&) = delete;

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

  LayerSpec spec() const override;
  std::string name() const override { return "inv_res"; }
  Shape output_shape(const Shape& in) const override;
  std::int64_t macc(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  bool has_skip() const { return use_skip_; }

 private:
  int in_channels_, out_channels_, expansion_, stride_;
  bool use_skip_;
  std::vector<std::unique_ptr<Layer>> chain_;  // pw + relu6 + dw + relu6 + pw
};

/// ResNet residual unit. Bottleneck form (1x1 -> 3x3 -> 1x1) when
/// `bottleneck` is true; basic (3x3 -> 3x3) otherwise. A 1x1 projection is
/// added on the skip path when shape changes.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(int in_channels, int mid_channels, int out_channels,
                int stride, bool bottleneck, util::Rng& rng);
  ResidualBlock(const ResidualBlock& other);
  ResidualBlock& operator=(const ResidualBlock&) = delete;

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;

  LayerSpec spec() const override;
  std::string name() const override { return bottleneck_ ? "res_bneck" : "res_basic"; }
  Shape output_shape(const Shape& in) const override;
  std::int64_t macc(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  int in_channels_, out_channels_, stride_;
  bool bottleneck_;
  std::vector<std::unique_ptr<Layer>> main_;   // conv/relu chain
  std::unique_ptr<Conv2d> projection_;         // null when identity skip
  Tensor cached_sum_;                          // for backward through the add+relu
};

}  // namespace cadmc::nn
