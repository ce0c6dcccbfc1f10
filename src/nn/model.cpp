#include "nn/model.h"

#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace cadmc::nn {

Model::Model(const Model& other) : input_shape_(other.input_shape_) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  Model copy(other);
  *this = std::move(copy);
  return *this;
}

void Model::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  layers_.push_back(std::move(layer));
}

void Model::replace_layer(std::size_t i,
                          std::vector<std::unique_ptr<Layer>> repl) {
  if (i >= layers_.size()) throw std::out_of_range("Model::replace_layer");
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i));
  for (std::size_t j = 0; j < repl.size(); ++j)
    layers_.insert(layers_.begin() + static_cast<std::ptrdiff_t>(i + j),
                   std::move(repl[j]));
}

void Model::remove_layer(std::size_t i) {
  if (i >= layers_.size()) throw std::out_of_range("Model::remove_layer");
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i));
}

std::unique_ptr<Layer> Model::take_layer(std::size_t i) {
  if (i >= layers_.size()) throw std::out_of_range("Model::take_layer");
  auto layer = std::move(layers_[i]);
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i));
  return layer;
}

Tensor Model::forward(const Tensor& input) const {
  return forward_range(input, 0, layers_.size());
}

Tensor Model::forward_range(const Tensor& input, std::size_t begin,
                            std::size_t end) const {
  if (begin > end || end > layers_.size())
    throw std::out_of_range("Model::forward_range");
  Tensor x = input;
  for (std::size_t i = begin; i < end; ++i) x = layers_[i]->forward(x);
  return x;
}

Tensor Model::forward_train(const Tensor& input) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward_train(x);
  return x;
}

void Model::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
}

std::vector<Tensor*> Model::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* p : l->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Model::grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_)
    for (Tensor* g : l->grads()) out.push_back(g);
  return out;
}

void Model::zero_grad() {
  for (auto& l : layers_) l->zero_grad();
}

std::int64_t Model::param_count() const {
  std::int64_t n = 0;
  for (const auto& l : layers_)
    n += const_cast<Layer&>(*l).param_count();
  return n;
}

Shape Model::shape_after(std::size_t i) const {
  if (i >= layers_.size()) throw std::out_of_range("Model::shape_after");
  Shape s = input_shape_;
  for (std::size_t j = 0; j <= i; ++j) s = layers_[j]->output_shape(s);
  return s;
}

std::vector<Shape> Model::boundary_shapes() const {
  std::vector<Shape> shapes;
  shapes.reserve(layers_.size() + 1);
  Shape s = input_shape_;
  shapes.push_back(s);
  for (const auto& l : layers_) {
    s = l->output_shape(s);
    shapes.push_back(s);
  }
  return shapes;
}

std::vector<std::int64_t> Model::layer_maccs() const {
  std::vector<std::int64_t> maccs;
  maccs.reserve(layers_.size());
  Shape s = input_shape_;
  for (const auto& l : layers_) {
    maccs.push_back(l->macc(s));
    s = l->output_shape(s);
  }
  return maccs;
}

std::int64_t Model::total_macc() const {
  std::int64_t total = 0;
  for (std::int64_t m : layer_maccs()) total += m;
  return total;
}

std::vector<std::int64_t> Model::boundary_bytes() const {
  std::vector<std::int64_t> bytes;
  for (const Shape& s : boundary_shapes())
    bytes.push_back(tensor::shape_numel(s) * 4);
  return bytes;
}

std::vector<std::string> Model::spec_strings() const {
  std::vector<std::string> out;
  out.reserve(layers_.size());
  for (const auto& l : layers_) out.push_back(l->spec().to_string());
  return out;
}

std::string Model::signature() const {
  return tensor::shape_to_string(input_shape_) + "|" +
         util::join(spec_strings(), ";");
}

Model Model::slice(std::size_t begin, std::size_t end) const {
  if (begin > end || end > layers_.size())
    throw std::out_of_range("Model::slice");
  Shape in = input_shape_;
  for (std::size_t i = 0; i < begin; ++i) in = layers_[i]->output_shape(in);
  Model out(std::move(in));
  for (std::size_t i = begin; i < end; ++i) out.add(layers_[i]->clone());
  return out;
}

void Model::append(const Model& other) {
  for (std::size_t i = 0; i < other.size(); ++i)
    layers_.push_back(other.layer(i).clone());
}

std::string Model::summary() const {
  std::ostringstream ss;
  ss << "Model input=" << tensor::shape_to_string(input_shape_)
     << " params=" << param_count() << " macc=" << total_macc() << "\n";
  Shape s = input_shape_;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const auto& l = layers_[i];
    const std::int64_t m = l->macc(s);
    s = l->output_shape(s);
    ss << "  [" << i << "] " << l->name() << " (" << l->spec().to_string()
       << ") -> " << tensor::shape_to_string(s) << " macc=" << m << "\n";
  }
  return ss.str();
}

}  // namespace cadmc::nn
