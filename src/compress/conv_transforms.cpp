// C1 (MobileNet), C2 (MobileNetV2), C3 (SqueezeNet) and W1 (Filter Pruning)
// — the Conv-layer compressions of Table II.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "compress/transform.h"
#include "nn/activation.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/quant.h"

namespace cadmc::compress {

namespace {
const nn::Conv2d* as_plain_conv(const nn::Model& model, std::size_t idx) {
  if (idx >= model.size()) return nullptr;
  const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(idx));
  if (conv == nullptr || conv->groups() != 1) return nullptr;
  return conv;
}

/// 3x3 convs with enough channels to be worth factorizing. The 'some Conv
/// layer' qualifier of Table II: 1x1 convs and tiny stem convs are excluded.
bool factorizable_conv(const nn::Conv2d* conv) {
  return conv != nullptr && conv->kernel() == 3 && conv->in_channels() >= 16 &&
         conv->out_channels() >= 16;
}
}  // namespace

bool MobileNetTransform::applicable(const nn::Model& model,
                                    std::size_t layer_idx) const {
  return factorizable_conv(as_plain_conv(model, layer_idx));
}

bool MobileNetTransform::apply(nn::Model& model, std::size_t layer_idx,
                               util::Rng& rng) const {
  if (!applicable(model, layer_idx)) return false;
  const nn::Conv2d* conv = as_plain_conv(model, layer_idx);
  const int in_c = conv->in_channels(), out_c = conv->out_channels();
  // Depthwise 3x3 (keeps stride/padding) followed by pointwise 1x1. Weights
  // are re-initialized — the composed model is retrained with distillation.
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::Conv2d>(
      in_c, in_c, conv->kernel(), conv->stride(), conv->padding(), rng, in_c));
  layers.push_back(std::make_unique<nn::ReLU>());
  layers.push_back(std::make_unique<nn::Conv2d>(in_c, out_c, 1, 1, 0, rng));
  nn::LayerSpec spec{"conv_dws", conv->kernel(), conv->stride(),
                     conv->padding(), out_c};
  std::vector<std::unique_ptr<nn::Layer>> repl;
  repl.push_back(std::make_unique<nn::SequentialBlock>("conv_dws",
                                                       std::move(layers), spec));
  model.replace_layer(layer_idx, std::move(repl));
  return true;
}

bool MobileNetV2Transform::applicable(const nn::Model& model,
                                      std::size_t layer_idx) const {
  return factorizable_conv(as_plain_conv(model, layer_idx));
}

bool MobileNetV2Transform::apply(nn::Model& model, std::size_t layer_idx,
                                 util::Rng& rng) const {
  if (!applicable(model, layer_idx)) return false;
  const nn::Conv2d* conv = as_plain_conv(model, layer_idx);
  std::vector<std::unique_ptr<nn::Layer>> repl;
  repl.push_back(std::make_unique<nn::InvertedResidual>(
      conv->in_channels(), conv->out_channels(), expansion_, conv->stride(),
      rng));
  model.replace_layer(layer_idx, std::move(repl));
  return true;
}

bool SqueezeNetTransform::applicable(const nn::Model& model,
                                     std::size_t layer_idx) const {
  const nn::Conv2d* conv = as_plain_conv(model, layer_idx);
  // Fire preserves spatial size, so only stride-1 padded convs qualify, and
  // the output channel count must be even (two expand branches).
  return factorizable_conv(conv) && conv->stride() == 1 &&
         conv->padding() == 1 && conv->out_channels() % 2 == 0;
}

bool SqueezeNetTransform::apply(nn::Model& model, std::size_t layer_idx,
                                util::Rng& rng) const {
  if (!applicable(model, layer_idx)) return false;
  const nn::Conv2d* conv = as_plain_conv(model, layer_idx);
  const int out_c = conv->out_channels();
  const int squeeze = std::max(4, out_c / 8);
  std::vector<std::unique_ptr<nn::Layer>> repl;
  repl.push_back(std::make_unique<nn::Fire>(conv->in_channels(), squeeze,
                                            out_c / 2, rng));
  model.replace_layer(layer_idx, std::move(repl));
  return true;
}

bool FilterPruneTransform::applicable(const nn::Model& model,
                                      std::size_t layer_idx) const {
  const nn::Conv2d* conv = as_plain_conv(model, layer_idx);
  if (conv == nullptr || conv->out_channels() < 8) return false;
  // The pruned output channels must be consumed by a later plain conv
  // (whose input channels we can shrink). Channel-agnostic layers in
  // between are fine; anything else blocks the rewiring.
  for (std::size_t i = layer_idx + 1; i < model.size(); ++i) {
    const nn::Layer& l = model.layer(i);
    if (as_plain_conv(model, i) != nullptr) return true;
    const std::string type = l.spec().type;
    if (type == "relu" || type == "relu6" || type == "dropout" ||
        type == "maxpool")
      continue;
    return false;
  }
  return false;
}

bool FilterPruneTransform::apply(nn::Model& model, std::size_t layer_idx,
                                 util::Rng& rng) const {
  (void)rng;  // pruning is deterministic given the weights
  if (!applicable(model, layer_idx)) return false;
  auto* conv = dynamic_cast<nn::Conv2d*>(&model.layer(layer_idx));
  const std::vector<double> saliency = conv->filter_saliency();
  const int out_c = conv->out_channels();
  const int keep_count = std::max(
      1, out_c - static_cast<int>(std::floor(out_c * prune_fraction_)));
  std::vector<int> order(static_cast<std::size_t>(out_c));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return saliency[static_cast<std::size_t>(a)] >
           saliency[static_cast<std::size_t>(b)];
  });
  std::vector<int> keep(order.begin(), order.begin() + keep_count);
  std::sort(keep.begin(), keep.end());  // preserve channel order
  conv->keep_filters(keep);
  for (std::size_t i = layer_idx + 1; i < model.size(); ++i) {
    if (auto* next = dynamic_cast<nn::Conv2d*>(&model.layer(i));
        next != nullptr && next->groups() == 1) {
      next->keep_input_channels(keep);
      break;
    }
  }
  return true;
}

bool QuantizeTransform::applicable(const nn::Model& model,
                                   std::size_t layer_idx) const {
  if (layer_idx >= model.size()) return false;
  const nn::Layer& layer = model.layer(layer_idx);
  // Already-quantized layers are excluded; plain convs and FCs qualify.
  const std::string type = layer.spec().type;
  if (type == "conv_q8" || type == "fc_q8") return false;
  if (dynamic_cast<const nn::Conv2d*>(&layer) != nullptr) return true;
  return dynamic_cast<const nn::Linear*>(&layer) != nullptr;
}

bool QuantizeTransform::apply(nn::Model& model, std::size_t layer_idx,
                              util::Rng& rng) const {
  (void)rng;  // quantization is deterministic
  if (!applicable(model, layer_idx)) return false;
  std::vector<std::unique_ptr<nn::Layer>> repl;
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(layer_idx))) {
    repl.push_back(std::make_unique<nn::QuantizedConv2d>(*conv, bits_));
  } else {
    const auto* fc = dynamic_cast<const nn::Linear*>(&model.layer(layer_idx));
    repl.push_back(std::make_unique<nn::QuantizedLinear>(*fc, bits_));
  }
  model.replace_layer(layer_idx, std::move(repl));
  return true;
}

}  // namespace cadmc::compress
