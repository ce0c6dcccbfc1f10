// Layer abstraction for the DNN substrate. Every layer
//  * runs a real forward pass on Tensors — a `const` inference pass that
//    writes nothing, so one layer can serve any number of threads at once —
//    and a training pass plus backward for knowledge distillation,
//  * can describe itself as the hyper-parameter string of Eqn. (1),
//    x_i = (l, k, s, p, n), which is what the LSTM controllers consume,
//  * reports its per-sample MACC count (Eqns. 4-5) for the latency model, and
//  * reports its parameter count and per-sample output shape so the engine
//    can compute model size and feature-transfer size at any cut point.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace cadmc::nn {

using tensor::Shape;
using tensor::Tensor;

/// Eqn. (1): a layer as a tuple of hyper-parameters (l, k, s, p, n).
struct LayerSpec {
  std::string type;      // l: layer type ("conv", "fc", "relu", ...)
  int kernel = 0;        // k
  int stride = 0;        // s
  int padding = 0;       // p
  int out_channels = 0;  // n

  /// "conv,3,1,1,64" — the string form fed to the controllers (Fig. 6).
  std::string to_string() const;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Inference: runs the layer on a batched input. Writes nothing, so
  /// concurrent calls on one layer are safe.
  virtual Tensor forward(const Tensor& input) const = 0;

  /// Training: the same kernels as forward(), plus whatever backward() needs
  /// is cached. Dropout computes the training-mode function.
  virtual Tensor forward_train(const Tensor& input) = 0;

  /// Propagates gradients; accumulates parameter gradients internally.
  /// Must be preceded by forward_train().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters and their gradient buffers (parallel vectors).
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }
  void zero_grad();
  std::int64_t param_count();

  virtual LayerSpec spec() const = 0;
  virtual std::string name() const { return spec().type; }

  /// Per-sample output shape (no batch dim): {c,h,w} for image tensors,
  /// {d} for flat feature vectors. Throws on incompatible input shapes.
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Per-sample multiply-accumulate operations (Eqns. 4-5). Layers the paper
  /// measures as negligible (pooling, dropout) return 0.
  virtual std::int64_t macc(const Shape& in) const {
    (void)in;
    return 0;
  }

  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  Layer() = default;
  Layer(const Layer&) = default;
  Layer& operator=(const Layer&) = default;
};

}  // namespace cadmc::nn
