#include "nn/composite.h"

#include <stdexcept>

#include "nn/activation.h"

namespace cadmc::nn {

namespace {
/// Concatenates two [N,C,H,W] tensors along the channel axis.
Tensor concat_channels(const Tensor& a, const Tensor& b) {
  const int n = a.dim(0), ca = a.dim(1), cb = b.dim(1), h = a.dim(2), w = a.dim(3);
  Tensor out({n, ca + cb, h, w});
  for (int bi = 0; bi < n; ++bi) {
    for (int c = 0; c < ca; ++c)
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out(bi, c, y, x) = a(bi, c, y, x);
    for (int c = 0; c < cb; ++c)
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) out(bi, ca + c, y, x) = b(bi, c, y, x);
  }
  return out;
}

/// Splits channel-axis gradient back into the two concat inputs.
std::pair<Tensor, Tensor> split_channels(const Tensor& g, int ca) {
  const int n = g.dim(0), c = g.dim(1), h = g.dim(2), w = g.dim(3);
  Tensor ga({n, ca, h, w});
  Tensor gb({n, c - ca, h, w});
  for (int bi = 0; bi < n; ++bi) {
    for (int cc = 0; cc < ca; ++cc)
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) ga(bi, cc, y, x) = g(bi, cc, y, x);
    for (int cc = ca; cc < c; ++cc)
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) gb(bi, cc - ca, y, x) = g(bi, cc, y, x);
  }
  return {std::move(ga), std::move(gb)};
}

std::vector<Tensor*> collect_params(std::vector<std::unique_ptr<Layer>>& layers) {
  std::vector<Tensor*> out;
  for (auto& l : layers)
    for (Tensor* p : l->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> collect_grads(std::vector<std::unique_ptr<Layer>>& layers) {
  std::vector<Tensor*> out;
  for (auto& l : layers)
    for (Tensor* g : l->grads()) out.push_back(g);
  return out;
}
}  // namespace

// ---------------------------------------------------------------- Sequential

SequentialBlock::SequentialBlock(std::string name,
                                 std::vector<std::unique_ptr<Layer>> layers,
                                 LayerSpec spec)
    : name_(std::move(name)), layers_(std::move(layers)), spec_(std::move(spec)) {
  if (layers_.empty())
    throw std::invalid_argument("SequentialBlock: no layers");
}

SequentialBlock::SequentialBlock(const SequentialBlock& other)
    : Layer(other), name_(other.name_), spec_(other.spec_) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

Tensor SequentialBlock::forward(const Tensor& input) const {
  Tensor x = input;
  for (const auto& l : layers_) x = l->forward(x);
  return x;
}

Tensor SequentialBlock::forward_train(const Tensor& input) {
  Tensor x = input;
  for (auto& l : layers_) x = l->forward_train(x);
  return x;
}

Tensor SequentialBlock::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Tensor*> SequentialBlock::params() { return collect_params(layers_); }
std::vector<Tensor*> SequentialBlock::grads() { return collect_grads(layers_); }

Shape SequentialBlock::output_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& l : layers_) s = l->output_shape(s);
  return s;
}

std::int64_t SequentialBlock::macc(const Shape& in) const {
  Shape s = in;
  std::int64_t total = 0;
  for (const auto& l : layers_) {
    total += l->macc(s);
    s = l->output_shape(s);
  }
  return total;
}

std::unique_ptr<Layer> SequentialBlock::clone() const {
  return std::make_unique<SequentialBlock>(*this);
}

// ----------------------------------------------------------------------- Fire

Fire::Fire(int in_channels, int squeeze_channels, int expand_channels,
           util::Rng& rng)
    : in_channels_(in_channels),
      squeeze_channels_(squeeze_channels),
      expand_channels_(expand_channels) {
  squeeze_ = std::make_unique<Conv2d>(in_channels, squeeze_channels, 1, 1, 0, rng);
  expand1_ = std::make_unique<Conv2d>(squeeze_channels, expand_channels, 1, 1, 0, rng);
  expand3_ = std::make_unique<Conv2d>(squeeze_channels, expand_channels, 3, 1, 1, rng);
}

Fire::Fire(const Fire& other)
    : Layer(other),
      in_channels_(other.in_channels_),
      squeeze_channels_(other.squeeze_channels_),
      expand_channels_(other.expand_channels_),
      squeeze_(std::make_unique<Conv2d>(*other.squeeze_)),
      expand1_(std::make_unique<Conv2d>(*other.expand1_)),
      expand3_(std::make_unique<Conv2d>(*other.expand3_)) {}

Tensor Fire::forward(const Tensor& input) const {
  Tensor s = squeeze_->forward(input);
  s.clamp_min_(0.0f);  // ReLU on the squeeze output
  Tensor out = concat_channels(expand1_->forward(s), expand3_->forward(s));
  out.clamp_min_(0.0f);  // ReLU on the concatenated expand output
  return out;
}

Tensor Fire::forward_train(const Tensor& input) {
  squeeze_out_ = squeeze_->forward_train(input);
  squeeze_out_.clamp_min_(0.0f);
  expand1_out_ = expand1_->forward_train(squeeze_out_);
  expand3_out_ = expand3_->forward_train(squeeze_out_);
  Tensor out = concat_channels(expand1_out_, expand3_out_);
  out.clamp_min_(0.0f);
  return out;
}

Tensor Fire::backward(const Tensor& grad_out) {
  // Through the final ReLU: gradient passes where pre-activation > 0.
  Tensor g = grad_out;
  const Tensor pre = concat_channels(expand1_out_, expand3_out_);
  for (std::int64_t i = 0; i < g.numel(); ++i)
    if (pre.at(i) <= 0.0f) g.at(i) = 0.0f;
  auto [g1, g3] = split_channels(g, expand_channels_);
  Tensor gs = expand1_->backward(g1);
  gs.add_(expand3_->backward(g3));
  // Through the squeeze ReLU.
  for (std::int64_t i = 0; i < gs.numel(); ++i)
    if (squeeze_out_.at(i) <= 0.0f) gs.at(i) = 0.0f;
  return squeeze_->backward(gs);
}

std::vector<Tensor*> Fire::params() {
  std::vector<Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(squeeze_.get()),
                   static_cast<Layer*>(expand1_.get()),
                   static_cast<Layer*>(expand3_.get())})
    for (Tensor* p : l->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Fire::grads() {
  std::vector<Tensor*> out;
  for (Layer* l : {static_cast<Layer*>(squeeze_.get()),
                   static_cast<Layer*>(expand1_.get()),
                   static_cast<Layer*>(expand3_.get())})
    for (Tensor* g : l->grads()) out.push_back(g);
  return out;
}

LayerSpec Fire::spec() const {
  return LayerSpec{"fire", 3, 1, 1, out_channels()};
}

Shape Fire::output_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_channels_)
    throw std::invalid_argument("Fire: incompatible input shape");
  return {out_channels(), in[1], in[2]};
}

std::int64_t Fire::macc(const Shape& in) const {
  Shape s = squeeze_->output_shape(in);
  return squeeze_->macc(in) + expand1_->macc(s) + expand3_->macc(s);
}

std::unique_ptr<Layer> Fire::clone() const {
  return std::make_unique<Fire>(*this);
}

// ----------------------------------------------------------- InvertedResidual

InvertedResidual::InvertedResidual(int in_channels, int out_channels,
                                   int expansion, int stride, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      expansion_(expansion),
      stride_(stride),
      use_skip_(stride == 1 && in_channels == out_channels) {
  const int mid = in_channels * expansion;
  if (expansion > 1) {
    chain_.push_back(std::make_unique<Conv2d>(in_channels, mid, 1, 1, 0, rng));
    chain_.push_back(std::make_unique<ReLU>(6.0f));
  }
  chain_.push_back(std::make_unique<Conv2d>(mid, mid, 3, stride, 1, rng, mid));
  chain_.push_back(std::make_unique<ReLU>(6.0f));
  chain_.push_back(std::make_unique<Conv2d>(mid, out_channels, 1, 1, 0, rng));
}

InvertedResidual::InvertedResidual(const InvertedResidual& other)
    : Layer(other),
      in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      expansion_(other.expansion_),
      stride_(other.stride_),
      use_skip_(other.use_skip_) {
  for (const auto& l : other.chain_) chain_.push_back(l->clone());
}

Tensor InvertedResidual::forward(const Tensor& input) const {
  Tensor x = input;
  for (const auto& l : chain_) x = l->forward(x);
  if (use_skip_) x.add_(input);
  return x;
}

Tensor InvertedResidual::forward_train(const Tensor& input) {
  Tensor x = input;
  for (auto& l : chain_) x = l->forward_train(x);
  if (use_skip_) x.add_(input);
  return x;
}

Tensor InvertedResidual::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) g = (*it)->backward(g);
  if (use_skip_) g.add_(grad_out);
  return g;
}

std::vector<Tensor*> InvertedResidual::params() { return collect_params(chain_); }
std::vector<Tensor*> InvertedResidual::grads() { return collect_grads(chain_); }

LayerSpec InvertedResidual::spec() const {
  return LayerSpec{"inv_res", 3, stride_, 1, out_channels_};
}

Shape InvertedResidual::output_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_channels_)
    throw std::invalid_argument("InvertedResidual: incompatible input shape");
  Shape s = in;
  for (const auto& l : chain_) s = l->output_shape(s);
  return s;
}

std::int64_t InvertedResidual::macc(const Shape& in) const {
  Shape s = in;
  std::int64_t total = 0;
  for (const auto& l : chain_) {
    total += l->macc(s);
    s = l->output_shape(s);
  }
  return total;
}

std::unique_ptr<Layer> InvertedResidual::clone() const {
  return std::make_unique<InvertedResidual>(*this);
}

// --------------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(int in_channels, int mid_channels,
                             int out_channels, int stride, bool bottleneck,
                             util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      bottleneck_(bottleneck) {
  if (bottleneck) {
    main_.push_back(std::make_unique<Conv2d>(in_channels, mid_channels, 1, 1, 0, rng));
    main_.push_back(std::make_unique<ReLU>());
    main_.push_back(std::make_unique<Conv2d>(mid_channels, mid_channels, 3, stride, 1, rng));
    main_.push_back(std::make_unique<ReLU>());
    main_.push_back(std::make_unique<Conv2d>(mid_channels, out_channels, 1, 1, 0, rng));
  } else {
    main_.push_back(std::make_unique<Conv2d>(in_channels, mid_channels, 3, stride, 1, rng));
    main_.push_back(std::make_unique<ReLU>());
    main_.push_back(std::make_unique<Conv2d>(mid_channels, out_channels, 3, 1, 1, rng));
  }
  if (stride != 1 || in_channels != out_channels)
    projection_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : Layer(other),
      in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      stride_(other.stride_),
      bottleneck_(other.bottleneck_) {
  for (const auto& l : other.main_) main_.push_back(l->clone());
  if (other.projection_)
    projection_ = std::make_unique<Conv2d>(*other.projection_);
}

Tensor ResidualBlock::forward(const Tensor& input) const {
  Tensor x = input;
  for (const auto& l : main_) x = l->forward(x);
  x.add_(projection_ ? projection_->forward(input) : input);
  x.clamp_min_(0.0f);  // final ReLU
  return x;
}

Tensor ResidualBlock::forward_train(const Tensor& input) {
  Tensor x = input;
  for (auto& l : main_) x = l->forward_train(x);
  x.add_(projection_ ? projection_->forward_train(input) : input);
  cached_sum_ = x;
  x.clamp_min_(0.0f);  // final ReLU
  return x;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.numel(); ++i)
    if (cached_sum_.at(i) <= 0.0f) g.at(i) = 0.0f;
  Tensor g_main = g;
  for (auto it = main_.rbegin(); it != main_.rend(); ++it)
    g_main = (*it)->backward(g_main);
  Tensor g_skip = projection_ ? projection_->backward(g) : g;
  g_main.add_(g_skip);
  return g_main;
}

std::vector<Tensor*> ResidualBlock::params() {
  auto out = collect_params(main_);
  if (projection_)
    for (Tensor* p : projection_->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> ResidualBlock::grads() {
  auto out = collect_grads(main_);
  if (projection_)
    for (Tensor* g : projection_->grads()) out.push_back(g);
  return out;
}

LayerSpec ResidualBlock::spec() const {
  return LayerSpec{bottleneck_ ? "res_bneck" : "res_basic", 3, stride_, 1,
                   out_channels_};
}

Shape ResidualBlock::output_shape(const Shape& in) const {
  if (in.size() != 3 || in[0] != in_channels_)
    throw std::invalid_argument("ResidualBlock: incompatible input shape");
  Shape s = in;
  for (const auto& l : main_) s = l->output_shape(s);
  return s;
}

std::int64_t ResidualBlock::macc(const Shape& in) const {
  Shape s = in;
  std::int64_t total = 0;
  for (const auto& l : main_) {
    total += l->macc(s);
    s = l->output_shape(s);
  }
  if (projection_) total += projection_->macc(in);
  return total;
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  return std::make_unique<ResidualBlock>(*this);
}

}  // namespace cadmc::nn
