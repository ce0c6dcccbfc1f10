// Cross-cutting property tests:
//  * search-time structural pricing == faithful realization pricing (the
//    core soundness invariant of the fast evaluator),
//  * randomly generated chain models respect their own shape metadata,
//  * every scene preset yields bounded, sane emulation statistics,
//  * transport failure injection.
#include <gtest/gtest.h>

#include "engine/branch_search.h"
#include "latency/device_profile.h"
#include "nn/activation.h"
#include "nn/conv.h"
#include "nn/factory.h"
#include "nn/linear.h"
#include "nn/pool.h"
#include "runtime/emulator.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"

namespace cadmc {
namespace {

using compress::TechniqueId;
using engine::Strategy;

partition::PartitionEvaluator make_pe() {
  latency::TransferModel transfer;
  transfer.rtt_ms = 15.0;
  return partition::PartitionEvaluator(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
}

/// The evaluator prices candidate edges with placeholder weights; this must
/// coincide exactly with the latency of the weight-faithful realization,
/// because the latency model only reads structure.
TEST(StructuralPricing, MatchesFaithfulRealization) {
  const nn::Model base = nn::make_alexnet();
  engine::StrategyEvaluator evaluator(
      base, make_pe(), engine::AccuracyModel(0.84, base.size(), 91));
  compress::TechniqueRegistry faithful(true);
  const auto space = engine::make_strategy_space(evaluator);
  util::Rng rng(92);
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Strategy s =
        engine::genome_to_strategy(evaluator, space.random_genome(rng));
    if (s.cut == 0) continue;
    const double structural =
        evaluator.evaluate(s, 300.0).breakdown.edge_ms;
    engine::RealizedStrategy realized =
        engine::realize_strategy(base, s, faithful, rng);
    const double real = evaluator.partition_eval().edge_model().range_latency_ms(
        realized.model, 0, realized.cut);
    EXPECT_NEAR(structural, real, 1e-6)
        << "strategy " << s.key() << " trial " << trial;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(StructuralPricing, RealizedModelAlwaysRunnable) {
  const nn::Model base = nn::make_vgg11();
  engine::StrategyEvaluator evaluator(
      base, make_pe(), engine::AccuracyModel(0.92, base.size(), 93));
  compress::TechniqueRegistry faithful(true);
  const auto space = engine::make_strategy_space(evaluator);
  util::Rng rng(94);
  util::Rng data_rng(95);
  const auto x = tensor::Tensor::randn({1, 3, 32, 32}, data_rng, 0.3f);
  for (int trial = 0; trial < 6; ++trial) {
    const Strategy s =
        engine::genome_to_strategy(evaluator, space.random_genome(rng));
    engine::RealizedStrategy realized =
        engine::realize_strategy(base, s, faithful, rng);
    EXPECT_EQ(realized.model.forward(x).shape(), (tensor::Shape{1, 10}))
        << s.key();
  }
}

/// Random chain generator: conv/relu/pool/flatten/fc chains with random but
/// valid hyper-parameters.
nn::Model random_chain(util::Rng& rng) {
  const int channels0 = 2 + static_cast<int>(rng.uniform_index(3));
  int size = 16;
  int channels = channels0;
  nn::Model m({channels, size, size});
  const int conv_blocks = 1 + static_cast<int>(rng.uniform_index(3));
  for (int b = 0; b < conv_blocks; ++b) {
    const int out = 2 + static_cast<int>(rng.uniform_index(14));
    const int kernel = rng.bernoulli(0.5) ? 3 : 1;
    m.add(std::make_unique<nn::Conv2d>(channels, out, kernel, 1, kernel / 2,
                                       rng));
    m.add(std::make_unique<nn::ReLU>());
    channels = out;
    if (size >= 4 && rng.bernoulli(0.6)) {
      m.add(std::make_unique<nn::MaxPool2d>(2, 2));
      size /= 2;
    }
  }
  m.add(std::make_unique<nn::Flatten>());
  m.add(std::make_unique<nn::Linear>(channels * size * size, 8, rng));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::Linear>(8, 4, rng));
  return m;
}

TEST(RandomChains, ForwardShapesMatchMetadata) {
  util::Rng rng(96);
  for (int trial = 0; trial < 12; ++trial) {
    nn::Model m = random_chain(rng);
    const auto shapes = m.boundary_shapes();
    tensor::Shape batched{2};
    for (int d : m.input_shape()) batched.push_back(d);
    const auto out = m.forward(tensor::Tensor::randn(batched, rng, 0.3f));
    tensor::Shape expected{2};
    for (int d : shapes.back()) expected.push_back(d);
    EXPECT_EQ(out.shape(), expected) << "trial " << trial;
  }
}

TEST(RandomChains, SliceAppendIdentity) {
  util::Rng rng(97);
  for (int trial = 0; trial < 8; ++trial) {
    nn::Model m = random_chain(rng);
    const std::size_t cut = 1 + rng.uniform_index(m.size() - 1);
    nn::Model recombined = m.slice(0, cut);
    recombined.append(m.slice(cut, m.size()));
    tensor::Shape batched{1};
    for (int d : m.input_shape()) batched.push_back(d);
    const auto x = tensor::Tensor::randn(batched, rng, 0.3f);
    EXPECT_LT(tensor::Tensor::max_abs_diff(m.forward(x), recombined.forward(x)),
              1e-5f);
  }
}

TEST(RandomChains, SurgeryOptimalOnRandomModels) {
  util::Rng rng(98);
  const auto pe = make_pe();
  for (int trial = 0; trial < 8; ++trial) {
    nn::Model m = random_chain(rng);
    const double bw = rng.uniform(20.0, 3000.0);
    const std::size_t surgery = partition::surgery_cut_for_chain(m, pe, bw);
    const std::size_t best = pe.best_cut(m, bw);
    EXPECT_NEAR(pe.evaluate(m, surgery, bw).total_ms(),
                pe.evaluate(m, best, bw).total_ms(), 1e-6)
        << "trial " << trial;
  }
}

/// Every scene preset must produce bounded emulation statistics for both
/// devices (a sweep across the paper's whole context grid).
struct SceneDevice {
  const char* scene;
  const char* device;
};
class SceneSweep : public ::testing::TestWithParam<SceneDevice> {};

TEST_P(SceneSweep, SurgeryEmulationBounded) {
  const auto [scene_name, device] = GetParam();
  const nn::Model base = nn::make_alexnet();
  const net::Scene scene = net::scene_by_name(scene_name);
  latency::TransferModel transfer;
  transfer.rtt_ms = scene.rtt_ms;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(latency::profile_by_name(device)),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  engine::StrategyEvaluator evaluator(
      base, std::move(pe), engine::AccuracyModel(0.84, base.size(), 99));
  const auto trace = net::generate_trace(scene.trace, 20'000.0, 100);
  runtime::RunnerConfig rc;
  rc.inferences = 6;
  runtime::InferenceRunner runner(evaluator, trace,
                                  nn::block_boundaries(base, 3), rc);
  const auto stats = runner.run_surgery();
  EXPECT_GT(stats.mean_reward, 0.0) << scene_name << "/" << device;
  EXPECT_LE(stats.mean_reward, 400.0);
  EXPECT_GT(stats.mean_latency_ms, 0.0);
  EXPECT_LT(stats.mean_latency_ms, 2'000.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenes, SceneSweep,
    ::testing::Values(SceneDevice{"4G (weak) indoor", "phone"},
                      SceneDevice{"4G indoor static", "phone"},
                      SceneDevice{"4G indoor slow", "phone"},
                      SceneDevice{"4G outdoor quick", "phone"},
                      SceneDevice{"WiFi (weak) indoor", "phone"},
                      SceneDevice{"WiFi (weak) outdoor", "phone"},
                      SceneDevice{"WiFi outdoor slow", "phone"},
                      SceneDevice{"4G (weak) indoor", "tx2"},
                      SceneDevice{"4G indoor static", "tx2"},
                      SceneDevice{"WiFi (weak) indoor", "tx2"}));

TEST(TransportFailure, ConnectToDeadServerThrows) {
  std::uint16_t port;
  {
    runtime::Gateway server(
        [](const runtime::GatewayRequest& r) { return r.payload; });
    port = server.start();
    server.stop();
  }
  runtime::TcpClient client;
  // Either connect or the first call must fail — never hang or succeed.
  try {
    client.connect(port);
    EXPECT_THROW(client.call({1, 2, 3}), std::runtime_error);
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST(TransportFailure, OversizedFrameRejectedByServer) {
  runtime::Gateway server(
      [](const runtime::GatewayRequest& r) { return r.payload; });
  const std::uint16_t port = server.start();
  runtime::TcpClient client;
  client.connect(port);
  // A normal call works.
  EXPECT_EQ(client.call({9}), (runtime::Blob{9}));
  client.close();
  server.stop();
}

}  // namespace
}  // namespace cadmc
