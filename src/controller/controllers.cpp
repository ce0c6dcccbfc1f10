#include "controller/controllers.h"

#include <cmath>
#include <stdexcept>

namespace cadmc::controller {

int LayerEmbedder::type_bucket(const std::string& type) {
  if (type == "conv" || type == "conv_q8") return 0;
  if (type == "conv_dws") return 1;
  if (type == "fire") return 2;
  if (type == "inv_res") return 3;
  if (type == "res_bneck" || type == "res_basic") return 4;
  if (type == "fc" || type == "fc_q8") return 5;
  if (type == "fc_svd" || type == "fc_ksvd") return 6;
  if (type == "maxpool") return 7;
  if (type == "gap") return 8;
  if (type == "relu" || type == "relu6") return 9;
  if (type == "flatten") return 10;
  return 11;  // dropout, anything else
}

Tensor LayerEmbedder::embed(const nn::Model& model, double bandwidth_mbps) {
  return embed_range(model, 0, model.size(), bandwidth_mbps);
}

Tensor LayerEmbedder::embed_range(const nn::Model& model, std::size_t begin,
                                  std::size_t end, double bandwidth_mbps) {
  if (begin >= end || end > model.size())
    throw std::invalid_argument("LayerEmbedder: empty or invalid range");
  const int t_len = static_cast<int>(end - begin);
  Tensor features({t_len, kDim});
  const float bw_feature = static_cast<float>(
      std::log1p(std::max(0.0, bandwidth_mbps)) / std::log1p(100.0));
  for (int t = 0; t < t_len; ++t) {
    const nn::LayerSpec spec =
        model.layer(begin + static_cast<std::size_t>(t)).spec();
    features(t, type_bucket(spec.type)) = 1.0f;
    features(t, kTypeBuckets + 0) = static_cast<float>(spec.kernel) / 11.0f;
    features(t, kTypeBuckets + 1) = static_cast<float>(spec.stride) / 4.0f;
    features(t, kTypeBuckets + 2) = static_cast<float>(spec.padding) / 3.0f;
    features(t, kTypeBuckets + 3) = static_cast<float>(
        std::log1p(static_cast<double>(spec.out_channels)) / std::log1p(4096.0));
    features(t, kTypeBuckets + 4) = bw_feature;
  }
  return features;
}

int sample_index(const std::vector<double>& probs, util::Rng& rng) {
  const double u = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    cumulative += probs[i];
    if (u < cumulative) return static_cast<int>(i);
  }
  return static_cast<int>(probs.size()) - 1;
}

namespace {
std::vector<double> softmax(const std::vector<double>& logits) {
  double mx = logits.front();
  for (double v : logits) mx = std::max(mx, v);
  std::vector<double> probs(logits.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - mx);
    denom += probs[i];
  }
  for (double& p : probs) p /= denom;
  return probs;
}
constexpr double kMaskedLogit = -1e30;
}  // namespace

// -------------------------------------------------------------- Partition

PartitionController::PartitionController(int hidden_dim, std::uint64_t seed)
    : PartitionController(hidden_dim, util::Rng(seed)) {}

PartitionController::PartitionController(int hidden_dim, util::Rng rng)
    : lstm_(LayerEmbedder::kDim, hidden_dim, rng),
      optimizer_(3e-3) {
  const int d = 2 * hidden_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  v_pos_ = Tensor::rand_uniform({d}, rng, -scale, scale);
  v_nop_ = Tensor::rand_uniform({d}, rng, -scale, scale);
  b_pos_ = Tensor({1});
  b_nop_ = Tensor({1});
  gv_pos_ = Tensor({d});
  gv_nop_ = Tensor({d});
  gb_pos_ = Tensor({1});
  gb_nop_ = Tensor({1});
}

std::vector<double> PartitionController::logits(const Tensor& hs) const {
  const int t_len = hs.dim(0), d = hs.dim(1);
  std::vector<double> out(static_cast<std::size_t>(t_len) + 1, 0.0);
  for (int t = 0; t < t_len; ++t) {
    double acc = b_pos_(0);
    for (int k = 0; k < d; ++k) acc += v_pos_(k) * hs(t, k);
    out[static_cast<std::size_t>(t)] = acc;
  }
  double acc = b_nop_(0);
  for (int k = 0; k < d; ++k) acc += v_nop_(k) * hs(t_len - 1, k);
  out.back() = acc;
  return out;
}

std::vector<double> PartitionController::policy(const Tensor& features) {
  return softmax(logits(lstm_.forward(features)));
}

PolicySample PartitionController::sample(const Tensor& features,
                                         util::Rng& rng) {
  PolicySample s;
  s.probs = policy(features);
  s.action = sample_index(s.probs, rng);
  return s;
}

void PartitionController::accumulate_grad(const Tensor& features, int action,
                                          double advantage) {
  const Tensor hs = lstm_.forward(features);
  const std::vector<double> probs = softmax(logits(hs));
  const int t_len = hs.dim(0), d = hs.dim(1);
  if (action < 0 || action > t_len)
    throw std::out_of_range("PartitionController::accumulate_grad: action");
  // d(-log pi(a)) / d logit_i = p_i - [i == a]; scaled by the advantage.
  Tensor grad_hs({t_len, d});
  for (int i = 0; i <= t_len; ++i) {
    const double g =
        advantage * (probs[static_cast<std::size_t>(i)] - (i == action ? 1.0 : 0.0));
    if (i < t_len) {
      gb_pos_(0) += static_cast<float>(g);
      for (int k = 0; k < d; ++k) {
        gv_pos_(k) += static_cast<float>(g * hs(i, k));
        grad_hs(i, k) += static_cast<float>(g * v_pos_(k));
      }
    } else {
      gb_nop_(0) += static_cast<float>(g);
      for (int k = 0; k < d; ++k) {
        gv_nop_(k) += static_cast<float>(g * hs(t_len - 1, k));
        grad_hs(t_len - 1, k) += static_cast<float>(g * v_nop_(k));
      }
    }
  }
  lstm_.backward(grad_hs);
}

std::vector<Tensor*> PartitionController::params() {
  auto p = lstm_.params();
  for (Tensor* t : {&v_pos_, &v_nop_, &b_pos_, &b_nop_}) p.push_back(t);
  return p;
}

void PartitionController::step() {
  auto p = params();
  auto g = lstm_.grads();
  for (Tensor* t : {&gv_pos_, &gv_nop_, &gb_pos_, &gb_nop_}) g.push_back(t);
  nn::clip_grad_norm(g, 5.0);
  optimizer_.step(p, g);
}

void PartitionController::zero_grad() {
  lstm_.zero_grad();
  gv_pos_.fill(0.0f);
  gv_nop_.fill(0.0f);
  gb_pos_.fill(0.0f);
  gb_nop_.fill(0.0f);
}

// ------------------------------------------------------------ Compression

CompressionController::CompressionController(int hidden_dim, int action_count,
                                             std::uint64_t seed)
    : CompressionController(hidden_dim, action_count, util::Rng(seed)) {}

CompressionController::CompressionController(int hidden_dim, int action_count,
                                             util::Rng rng)
    : action_count_(action_count),
      lstm_(LayerEmbedder::kDim, hidden_dim, rng),
      optimizer_(3e-3) {
  if (action_count <= 0)
    throw std::invalid_argument("CompressionController: bad action count");
  const int d = 2 * hidden_dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  w_head_ = Tensor::rand_uniform({action_count, d}, rng, -scale, scale);
  b_head_ = Tensor({action_count});
  // Do-nothing prior: start with "None" (action 0) likely, so early rollouts
  // explore light compression instead of rewriting every layer at once.
  b_head_(0) = 3.0f;
  gw_head_ = Tensor(w_head_.shape());
  gb_head_ = Tensor(b_head_.shape());
}

std::vector<std::vector<double>> CompressionController::masked_probs(
    const Tensor& hs, const std::vector<std::vector<int>>& masks) const {
  const int t_len = hs.dim(0), d = hs.dim(1);
  if (static_cast<int>(masks.size()) != t_len)
    throw std::invalid_argument("CompressionController: mask count mismatch");
  std::vector<std::vector<double>> out;
  out.reserve(static_cast<std::size_t>(t_len));
  for (int t = 0; t < t_len; ++t) {
    std::vector<double> logit(static_cast<std::size_t>(action_count_),
                              kMaskedLogit);
    const auto& allowed = masks[static_cast<std::size_t>(t)];
    auto is_allowed = [&](int a) {
      if (allowed.empty()) return a == 0;
      for (int m : allowed)
        if (m == a) return true;
      return false;
    };
    for (int a = 0; a < action_count_; ++a) {
      if (!is_allowed(a)) continue;
      double acc = b_head_(a);
      for (int k = 0; k < d; ++k) acc += w_head_(a, k) * hs(t, k);
      logit[static_cast<std::size_t>(a)] = acc;
    }
    out.push_back(softmax(logit));
  }
  return out;
}

std::vector<std::vector<double>> CompressionController::policies(
    const Tensor& features, const std::vector<std::vector<int>>& masks) {
  return masked_probs(lstm_.forward(features), masks);
}

std::vector<PolicySample> CompressionController::sample(
    const Tensor& features, const std::vector<std::vector<int>>& masks,
    util::Rng& rng) {
  const auto probs = policies(features, masks);
  std::vector<PolicySample> out;
  out.reserve(probs.size());
  for (const auto& p : probs) {
    PolicySample s;
    s.probs = p;
    s.action = sample_index(p, rng);
    out.push_back(std::move(s));
  }
  return out;
}

void CompressionController::accumulate_grad(
    const Tensor& features, const std::vector<std::vector<int>>& masks,
    const std::vector<int>& actions, double advantage) {
  const Tensor hs = lstm_.forward(features);
  const auto probs = masked_probs(hs, masks);
  const int t_len = hs.dim(0), d = hs.dim(1);
  if (static_cast<int>(actions.size()) != t_len)
    throw std::invalid_argument("CompressionController: action count mismatch");
  Tensor grad_hs({t_len, d});
  for (int t = 0; t < t_len; ++t) {
    const int a_taken = actions[static_cast<std::size_t>(t)];
    for (int a = 0; a < action_count_; ++a) {
      const double p = probs[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)];
      if (p <= 0.0 && a != a_taken) continue;  // masked-out action
      const double g = advantage * (p - (a == a_taken ? 1.0 : 0.0));
      if (g == 0.0) continue;
      gb_head_(a) += static_cast<float>(g);
      for (int k = 0; k < d; ++k) {
        gw_head_(a, k) += static_cast<float>(g * hs(t, k));
        grad_hs(t, k) += static_cast<float>(g * w_head_(a, k));
      }
    }
  }
  lstm_.backward(grad_hs);
}

std::vector<Tensor*> CompressionController::params() {
  auto p = lstm_.params();
  p.push_back(&w_head_);
  p.push_back(&b_head_);
  return p;
}

void CompressionController::step() {
  auto p = params();
  auto g = lstm_.grads();
  g.push_back(&gw_head_);
  g.push_back(&gb_head_);
  nn::clip_grad_norm(g, 5.0);
  optimizer_.step(p, g);
}

void CompressionController::zero_grad() {
  lstm_.zero_grad();
  gw_head_.fill(0.0f);
  gb_head_.fill(0.0f);
}

}  // namespace cadmc::controller
