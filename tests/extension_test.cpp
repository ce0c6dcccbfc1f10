// Tests for the documented extensions beyond the paper's Table II/metrics:
// Q1 8-bit weight quantization (layers, transform, latency pricing) and the
// first-order energy model.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/registry.h"
#include "latency/compute_model.h"
#include "latency/device_profile.h"
#include "latency/energy_model.h"
#include "nn/factory.h"
#include "nn/quant.h"

namespace cadmc {
namespace {

using compress::TechniqueId;
using tensor::Tensor;

TEST(QuantizeTensor, SnapsToGridPreservingExtremes) {
  Tensor t = Tensor::from_values({-1.0f, 0.5f, 0.24f, 1.0f});
  const float scale = nn::quantize_tensor(t, 8);
  EXPECT_GT(scale, 0.0f);
  EXPECT_FLOAT_EQ(t(0), -1.0f);  // extremes representable exactly
  EXPECT_FLOAT_EQ(t(3), 1.0f);
  // Every value lies on the grid.
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float q = t.at(i) / scale;
    EXPECT_NEAR(q, std::round(q), 1e-4f);
  }
}

TEST(QuantizeTensor, CoarseGridLosesMore) {
  util::Rng rng(1);
  const Tensor original = Tensor::randn({512}, rng);
  Tensor q8 = original, q3 = original;
  nn::quantize_tensor(q8, 8);
  nn::quantize_tensor(q3, 3);
  EXPECT_LT(Tensor::max_abs_diff(q8, original),
            Tensor::max_abs_diff(q3, original));
}

TEST(QuantizeTensor, ZeroTensorIsFixedPoint) {
  Tensor t({4});
  EXPECT_EQ(nn::quantize_tensor(t, 8), 0.0f);
  EXPECT_EQ(t.abs_max(), 0.0f);
}

TEST(QuantizeTensor, RejectsBadBits) {
  Tensor t({4});
  EXPECT_THROW(nn::quantize_tensor(t, 1), std::invalid_argument);
  EXPECT_THROW(nn::quantize_tensor(t, 17), std::invalid_argument);
}

TEST(QuantizedConv, OutputCloseToOriginal) {
  util::Rng rng(2);
  nn::Conv2d conv(4, 8, 3, 1, 1, rng);
  nn::QuantizedConv2d qconv(conv, 8);
  const Tensor x = Tensor::randn({1, 4, 6, 6}, rng, 0.5f);
  const Tensor y = conv.forward(x);
  const Tensor yq = qconv.forward(x);
  EXPECT_LT(Tensor::max_abs_diff(y, yq) / std::max(1e-6f, y.abs_max()), 0.05f);
  EXPECT_EQ(qconv.spec().type, "conv_q8");
  EXPECT_EQ(qconv.name(), "conv_q8");
  EXPECT_EQ(qconv.macc({4, 6, 6}), conv.macc({4, 6, 6}));
}

TEST(QuantizedLinear, SpecAndClone) {
  util::Rng rng(3);
  nn::Linear fc(16, 8, rng);
  nn::QuantizedLinear qfc(fc, 8);
  EXPECT_EQ(qfc.spec().type, "fc_q8");
  auto clone = qfc.clone();
  EXPECT_EQ(clone->spec().type, "fc_q8");
}

TEST(QuantizeTransform, AppliesToConvAndFcNotTwice) {
  compress::QuantizeTransform q1;
  nn::Model m = nn::make_alexnet();
  EXPECT_TRUE(q1.applicable(m, 0));   // conv
  EXPECT_FALSE(q1.applicable(m, 1));  // relu
  util::Rng rng(4);
  ASSERT_TRUE(q1.apply(m, 0, rng));
  EXPECT_EQ(m.layer(0).spec().type, "conv_q8");
  EXPECT_FALSE(q1.applicable(m, 0));  // already quantized
}

TEST(QuantizeTransform, PreservesStructure) {
  compress::QuantizeTransform q1;
  nn::Model m = nn::make_alexnet();
  const auto shapes = m.boundary_shapes();
  const auto maccs = m.total_macc();
  const auto params = m.param_count();
  util::Rng rng(5);
  ASSERT_TRUE(q1.apply(m, 3, rng));
  EXPECT_EQ(m.boundary_shapes(), shapes);
  EXPECT_EQ(m.total_macc(), maccs);
  EXPECT_EQ(m.param_count(), params);
}

TEST(QuantizeLatency, PhoneSpeedsUpGpuBarely) {
  util::Rng rng(6);
  nn::Conv2d conv(32, 32, 3, 1, 1, rng);
  nn::QuantizedConv2d qconv(conv, 8);
  const nn::Shape in{32, 16, 16};
  latency::ComputeLatencyModel phone(latency::phone_profile());
  latency::ComputeLatencyModel cloud(latency::cloud_profile());
  const double speedup_phone =
      phone.layer_latency_ms(conv, in) / phone.layer_latency_ms(qconv, in);
  const double speedup_cloud =
      cloud.layer_latency_ms(conv, in) / cloud.layer_latency_ms(qconv, in);
  EXPECT_GT(speedup_phone, 1.4);
  EXPECT_LT(speedup_cloud, 1.1);
}

TEST(QuantizeSearch, ExtendedRegistryOffersQ1OnEveryConvAndFc) {
  compress::TechniqueRegistry registry(true, true);
  const nn::Model m = nn::make_alexnet();
  int offered = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto ids = registry.applicable(m, i);
    for (TechniqueId id : ids)
      if (id == TechniqueId::kQ1Quantize) ++offered;
  }
  EXPECT_GE(offered, 8);  // 5 convs + 3 FCs
}

TEST(EnergyModel, ComponentsAddUp) {
  latency::EnergyModel em(latency::phone_energy_profile());
  // 1e9 MACCs at 0.8 nJ = 800 mJ; 100 ms radio at 1800 mW = 180 mJ;
  // 150 ms idle at 250 mW = 37.5 mJ.
  EXPECT_NEAR(em.inference_mj(1'000'000'000, 100.0, 150.0),
              800.0 + 180.0 + 37.5, 1e-6);
}

TEST(EnergyModel, OffloadingSavesComputeCostsRadio) {
  latency::EnergyModel em(latency::phone_energy_profile());
  const nn::Model m = nn::make_vgg11();
  const double all_edge = em.strategy_mj(m, m.size(), 0.0, 0.0);
  const double offload = em.strategy_mj(m, 0, 50.0, 5.0);
  EXPECT_GT(all_edge, 0.0);
  // For VGG11-at-CIFAR scale, compute energy (~0.12 J) dominates a 50 ms
  // upload (~0.1 J) — the trade is real and close.
  EXPECT_GT(offload, 0.0);
  EXPECT_LT(offload, all_edge * 2.0);
}

TEST(EnergyModel, MonotoneInAllInputs) {
  latency::EnergyModel em(latency::phone_energy_profile());
  EXPECT_LT(em.inference_mj(1000, 1.0, 1.0), em.inference_mj(2000, 1.0, 1.0));
  EXPECT_LT(em.inference_mj(1000, 1.0, 1.0), em.inference_mj(1000, 2.0, 1.0));
  EXPECT_LT(em.inference_mj(1000, 1.0, 1.0), em.inference_mj(1000, 1.0, 2.0));
}

TEST(EnergyModel, RejectsNegativeInputs) {
  latency::EnergyModel em(latency::phone_energy_profile());
  EXPECT_THROW(em.inference_mj(-1, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(em.inference_mj(0, -1.0, 0.0), std::invalid_argument);
  const nn::Model m = nn::make_mlp(4, 8, 2);
  EXPECT_THROW(em.strategy_mj(m, m.size() + 1, 0.0, 0.0), std::out_of_range);
}

TEST(EnergyModel, ProfilesDiffer) {
  EXPECT_NE(latency::phone_energy_profile().idle_mw,
            latency::tx2_energy_profile().idle_mw);
}

}  // namespace
}  // namespace cadmc
