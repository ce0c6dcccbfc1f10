// Model: an ordered chain of layers. This is the unit the decision engine
// manipulates — it can be sliced into blocks (for the model tree), described
// as the hyper-parameter string sequence of Eqn. (1), and profiled per layer
// for MACCs and feature sizes at every possible cut point.
//
// Inference (forward, forward_range) is `const`: a model that is only
// served is immutable, so threads share it without copies or locks. Only
// training (forward_train, backward, the optimizer) writes layer state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace cadmc::nn {

class Model {
 public:
  Model() = default;
  /// `input_shape` is the per-sample shape, e.g. {3,32,32} for CIFAR.
  explicit Model(Shape input_shape) : input_shape_(std::move(input_shape)) {}

  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  void add(std::unique_ptr<Layer> layer);

  std::size_t size() const { return layers_.size(); }
  bool empty() const { return layers_.empty(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Replaces layer i with one or more layers (compression transforms).
  void replace_layer(std::size_t i, std::vector<std::unique_ptr<Layer>> repl);
  void remove_layer(std::size_t i);
  std::unique_ptr<Layer> take_layer(std::size_t i);

  const Shape& input_shape() const { return input_shape_; }

  /// Full inference pass over a batched input tensor.
  Tensor forward(const Tensor& input) const;
  /// Inference through layers [begin, end).
  Tensor forward_range(const Tensor& input, std::size_t begin,
                       std::size_t end) const;
  /// Training pass: caches what backward() needs in every layer.
  Tensor forward_train(const Tensor& input);
  /// Backward pass; call after forward_train().
  void backward(const Tensor& grad_out);

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  void zero_grad();
  std::int64_t param_count() const;

  /// Per-sample output shape after layer i (i.e. after layers [0..i]).
  Shape shape_after(std::size_t i) const;
  /// Per-sample shapes at every boundary: index 0 is the input shape,
  /// index i+1 the shape after layer i. Size = size() + 1.
  std::vector<Shape> boundary_shapes() const;
  /// Per-layer MACCs (Eqns. 4-5). Size = size().
  std::vector<std::int64_t> layer_maccs() const;
  std::int64_t total_macc() const;
  /// Bytes of the float32 feature tensor crossing boundary i (0 = raw input).
  std::vector<std::int64_t> boundary_bytes() const;

  /// Eqn. (1) string state, one entry per layer.
  std::vector<std::string> spec_strings() const;
  /// Single-line signature used for memoization keys.
  std::string signature() const;

  /// Deep-copies layers [begin, end) into a new model whose input shape is
  /// the boundary shape at `begin`.
  Model slice(std::size_t begin, std::size_t end) const;
  /// Appends deep copies of all layers of `other`.
  void append(const Model& other);

  std::string summary() const;

 private:
  Shape input_shape_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace cadmc::nn
