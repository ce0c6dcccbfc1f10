// Pooling layers: max and global-average (the F3 replacement for FC heads
// in Table II). Pooling MACCs are negligible per the paper's
// measurements, so macc() stays 0.
//
// Backward needs only the input *shape* (plus, for max pooling, the argmax
// routing), so no layer here retains a full input activation:
// forward_train caches the shape, backward consumes the cache and releases
// it. A backward without a forward_train — or a second backward on the same
// cache — throws std::logic_error, as Conv2d/Linear do. The `const` forward
// never touches the cache.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/ops.h"

namespace cadmc::nn {

class MaxPool2d : public Layer {
 public:
  MaxPool2d(int kernel, int stride);

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  int kernel_, stride_;
  Shape cached_shape_;  // set by forward_train; empty until then
  std::vector<std::int64_t> cached_argmax_;
};

/// [N,C,H,W] -> [N,C]; replaces FC heads under the F3 transform.
class GlobalAvgPool : public Layer {
 public:
  GlobalAvgPool() = default;

  Tensor forward(const Tensor& input) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_out) override;

  LayerSpec spec() const override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_shape_;  // set by forward_train; empty until then
};

}  // namespace cadmc::nn
