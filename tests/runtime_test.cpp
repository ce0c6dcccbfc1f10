// Runtime tests: trace-shaped transfer, loopback TCP transport, executors,
// the emulation/field harness of Tables IV-V (including the expected
// orderings: tree >= branch >= surgery on reward, field <= emulation), the
// TCP field session agreeing with local execution, and the DecisionEngine
// facade end to end.
#include <gtest/gtest.h>

#include "latency/device_profile.h"
#include "nn/factory.h"
#include "runtime/decision_engine.h"
#include "runtime/emulator.h"
#include "runtime/executor.h"
#include "runtime/field.h"
#include "runtime/gateway.h"
#include "runtime/shaper.h"
#include "runtime/transport.h"
#include "tensor/serialize.h"

namespace cadmc::runtime {
namespace {

using compress::TechniqueId;
using engine::Strategy;

TEST(Shaper, ConstantTraceMatchesClosedForm) {
  net::BandwidthTrace trace(100.0, std::vector<double>(100, 250.0));
  const double rtt = 12.0, coeff = 0.18;
  const std::int64_t bytes = 50'000;
  const double expected = rtt + (1.0 + coeff) * bytes / 250.0;
  EXPECT_NEAR(shaped_transfer_ms(trace, 0.0, bytes, rtt, coeff), expected, 0.5);
}

TEST(Shaper, ZeroBytesFree) {
  net::BandwidthTrace trace(100.0, {100.0});
  EXPECT_EQ(shaped_transfer_ms(trace, 0.0, 0, 10.0), 0.0);
}

TEST(Shaper, MidTransferFadeSlowsDelivery) {
  // Fast for 1 s, then a deep fade: a payload launched just before the fade
  // takes much longer than the decision-time bandwidth suggests.
  std::vector<double> samples(10, 1000.0);
  samples.resize(200, 10.0);
  net::BandwidthTrace trace(100.0, samples);
  const std::int64_t bytes = 2'000'000;
  const double optimistic = bytes / 1000.0;  // ~2 s at the initial rate
  const double actual = shaped_transfer_ms(trace, 900.0, bytes, 0.0, 0.0);
  EXPECT_GT(actual, optimistic * 10);
}

TEST(Shaper, LaterStartAfterRecoveryIsFaster) {
  std::vector<double> samples(50, 10.0);
  samples.resize(100, 1000.0);
  net::BandwidthTrace trace(100.0, samples);
  const double early = shaped_transfer_ms(trace, 0.0, 100'000, 0.0);
  const double late = shaped_transfer_ms(trace, 5000.0, 100'000, 0.0);
  EXPECT_LT(late, early);
}

TEST(Transport, EchoRoundTrip) {
  Gateway server([](const GatewayRequest& r) { return r.payload; });
  const std::uint16_t port = server.start();
  TcpClient client;
  client.connect(port);
  const Blob msg{1, 2, 3, 4, 5};
  EXPECT_EQ(client.call(msg), msg);
  client.close();
  server.stop();
}

TEST(Transport, LargePayloadAndMultipleCalls) {
  Gateway server([](const GatewayRequest& r) {
    Blob out = r.payload;
    for (auto& b : out) b ^= 0xFF;
    return out;
  });
  const std::uint16_t port = server.start();
  TcpClient client;
  client.connect(port);
  Blob big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);
  for (int round = 0; round < 3; ++round) {
    const Blob back = client.call(big);
    ASSERT_EQ(back.size(), big.size());
    EXPECT_EQ(back[12345], static_cast<std::uint8_t>(big[12345] ^ 0xFF));
  }
  client.close();
  server.stop();
}

TEST(Transport, CallWithoutConnectThrows) {
  TcpClient client;
  EXPECT_THROW(client.call({1}), std::runtime_error);
}

TEST(Executor, RangeExecutionMatchesDirectForward) {
  nn::Model m = nn::make_tiny_cnn(4, 8, 30);
  util::Rng rng(31);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, rng, 0.3f);
  latency::ComputeLatencyModel device(latency::phone_profile());
  const auto head = execute_range(m, x, 0, 3, device);
  const auto tail = execute_range(m, head.output, 3, m.size(), device);
  const auto direct = m.forward(x);
  EXPECT_LT(tensor::Tensor::max_abs_diff(tail.output, direct), 1e-6f);
  EXPECT_GT(head.device_ms + tail.device_ms, 0.0);
}

TEST(Executor, CloudExecutorOverTcp) {
  nn::Model m = nn::make_tiny_cnn(4, 8, 32);
  util::Rng rng(33);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, rng, 0.3f);
  const auto expected = m.forward(x);

  CloudExecutor cloud(m, latency::ComputeLatencyModel(latency::cloud_profile()));
  const std::uint16_t port = cloud.start();
  TcpClient client;
  client.connect(port);
  const RemoteResult remote = call_cloud(client, x);
  EXPECT_LT(tensor::Tensor::max_abs_diff(remote.logits, expected), 1e-6f);
  EXPECT_GT(remote.cloud_ms, 0.0);
  client.close();
  cloud.stop();
}

class RunnerFixture : public ::testing::Test {
 protected:
  RunnerFixture()
      : base_(nn::make_alexnet()),
        boundaries_(nn::block_boundaries(base_, 3)),
        evaluator_(base_, make_pe(),
                   engine::AccuracyModel(0.8404, base_.size(), 41),
                   engine::RewardConfig{}) {}

  static partition::PartitionEvaluator make_pe() {
    latency::TransferModel transfer;
    transfer.rtt_ms = 15.0;
    return partition::PartitionEvaluator(
        latency::ComputeLatencyModel(latency::phone_profile()),
        latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  }

  net::BandwidthTrace make_trace(double mean_mbps = 2.0,
                                 std::uint64_t seed = 42) const {
    net::TraceGeneratorParams params;
    params.mean_mbps = mean_mbps;
    params.volatility = 0.4;
    return net::generate_trace(params, 30'000.0, seed);
  }

  nn::Model base_;
  std::vector<std::size_t> boundaries_;
  engine::StrategyEvaluator evaluator_;
};

TEST_F(RunnerFixture, SurgeryStatsSane) {
  RunnerConfig config;
  config.inferences = 10;
  InferenceRunner runner(evaluator_, make_trace(), boundaries_, config);
  const RunStats stats = runner.run_surgery();
  EXPECT_EQ(stats.inferences, 10);
  EXPECT_GT(stats.mean_latency_ms, 1.0);
  EXPECT_LT(stats.mean_latency_ms, 500.0);
  EXPECT_DOUBLE_EQ(stats.mean_accuracy, 0.8404);  // surgery never compresses
  EXPECT_GT(stats.mean_reward, 100.0);
}

TEST_F(RunnerFixture, BranchRunUsesFixedStrategy) {
  RunnerConfig config;
  config.inferences = 8;
  InferenceRunner runner(evaluator_, make_trace(), boundaries_, config);
  Strategy s;
  s.cut = base_.size();
  s.plan.assign(base_.size(), TechniqueId::kNone);
  s.plan[3] = TechniqueId::kC1MobileNet;
  const RunStats stats = runner.run_branch(s);
  EXPECT_LT(stats.mean_accuracy, 0.8404);
  // All-edge latency is bandwidth independent here.
  const RunStats again = runner.run_branch(s);
  EXPECT_DOUBLE_EQ(stats.mean_latency_ms, again.mean_latency_ms);
}

TEST_F(RunnerFixture, TreeAdaptsAndTracksSurgery) {
  // Trace straddling the edge/offload crossover (~7 Mbps for this
  // model/device): the tree adapts per block — edge when poor, offload when
  // good — and must at least track per-inference surgery.
  RunnerConfig config;
  config.inferences = 16;
  net::TraceGeneratorParams params;
  params.mean_mbps = 6.8;
  params.volatility = 0.6;
  const auto trace = net::generate_trace(params, 30'000.0, 44);
  InferenceRunner runner(evaluator_, trace, boundaries_, config);

  tree::ModelTree mt(base_, boundaries_,
                     {trace.quantile(0.25), trace.quantile(0.75)});
  Strategy poor;
  poor.cut = base_.size();  // poor network: stay on the edge, uncompressed
  poor.plan.assign(base_.size(), TechniqueId::kNone);
  mt.graft_branch(0, poor);
  Strategy rich;
  rich.cut = 0;  // good network: ship the input to the cloud
  rich.plan.assign(base_.size(), TechniqueId::kNone);
  mt.graft_branch(1, rich);

  const RunStats tree_stats = runner.run_tree(mt);
  const RunStats surgery_stats = runner.run_surgery();
  EXPECT_GT(tree_stats.mean_reward + 8.0, surgery_stats.mean_reward);
  EXPECT_GT(tree_stats.mean_accuracy, 0.80);
}

TEST_F(RunnerFixture, FixedStrategyEqualsOnePathTree) {
  // The tree walk's per-block hook prices blocks exactly like a fixed
  // strategy's edge loop: a tree with one strategy grafted on every node
  // runs bitwise like that strategy. (Field mode differs by design: the two
  // policies draw compute noise from different RNG salts.)
  net::TraceGeneratorParams params;
  params.mean_mbps = 6.8;
  params.volatility = 0.6;
  const auto trace = net::generate_trace(params, 30'000.0, 44);
  for (const std::size_t cut : {0u, 2u, 7u, 8u, 9u, 18u, 20u}) {
    for (const double deadline : {0.0, 60.0}) {
      SCOPED_TRACE("cut " + std::to_string(cut) + " deadline " +
                   std::to_string(deadline));
      RunnerConfig config;
      config.inferences = 16;
      config.cloud_deadline_ms = deadline;
      const InferenceRunner runner(evaluator_, trace, boundaries_, config);
      Strategy s;
      s.cut = cut;
      s.plan.assign(base_.size(), TechniqueId::kNone);
      if (cut > 3) s.plan[3] = TechniqueId::kC1MobileNet;
      tree::ModelTree mt(base_, boundaries_,
                         {trace.quantile(0.25), trace.quantile(0.75)});
      mt.graft_everywhere(s);
      const RunStats branch = runner.run_branch(s);
      const RunStats walked = runner.run_tree(mt);
      EXPECT_EQ(walked.mean_latency_ms, branch.mean_latency_ms);
      EXPECT_EQ(walked.mean_reward, branch.mean_reward);
      EXPECT_EQ(walked.p99_latency_ms, branch.p99_latency_ms);
      EXPECT_EQ(walked.deadline_misses, branch.deadline_misses);
    }
  }
}

TEST_F(RunnerFixture, FieldModeDegradesOutcomes) {
  // Same policies, field timing: reward should not improve (noise, fades,
  // staleness only add cost on average).
  RunnerConfig emu;
  emu.inferences = 16;
  RunnerConfig field = emu;
  field.mode = TimingMode::kField;
  const auto trace = make_trace(1.5, 43);
  InferenceRunner emu_runner(evaluator_, trace, boundaries_, emu);
  InferenceRunner field_runner(evaluator_, trace, boundaries_, field);
  const RunStats e = emu_runner.run_surgery();
  const RunStats f = field_runner.run_surgery();
  EXPECT_LE(f.mean_reward, e.mean_reward + 8.0);
  EXPECT_GE(f.mean_latency_ms + 8.0, e.mean_latency_ms);
}

TEST(FieldSession, LogitsMatchLocalExecution) {
  // Realize a strategy with a mid-model cut and verify the TCP round trip
  // produces exactly the local forward result.
  nn::Model base = nn::make_tiny_cnn(4, 8, 50);
  Strategy s;
  s.cut = 3;
  s.plan.assign(base.size(), TechniqueId::kNone);
  util::Rng rng(51);
  compress::TechniqueRegistry registry;
  engine::RealizedStrategy realized =
      engine::realize_strategy(base, s, registry, rng);

  net::BandwidthTrace trace(100.0, std::vector<double>(100, 500.0));
  CloudExecutor cloud(realized.model.slice(realized.cut, realized.model.size()),
                      latency::ComputeLatencyModel(latency::cloud_profile()));
  cloud.start();
  FieldSession session(realized, &cloud,
                       latency::ComputeLatencyModel(latency::phone_profile()),
                       trace, 10.0, /*time_scale=*/0.0);
  ASSERT_TRUE(session.offloads());

  util::Rng data_rng(52);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, data_rng, 0.3f);
  const FieldOutcome outcome = session.infer(x, 0.0);
  const auto local = base.forward(x);
  EXPECT_LT(tensor::Tensor::max_abs_diff(outcome.logits, local), 1e-5f);
  EXPECT_GT(outcome.transfer_ms, 10.0);
  EXPECT_GT(outcome.edge_ms, 0.0);
  EXPECT_GT(outcome.cloud_ms, 0.0);
}

TEST(FieldSession, AllEdgeStrategySkipsNetwork) {
  nn::Model base = nn::make_tiny_cnn(4, 8, 53);
  Strategy s;
  s.cut = base.size();
  s.plan.assign(base.size(), TechniqueId::kNone);
  util::Rng rng(54);
  compress::TechniqueRegistry registry;
  engine::RealizedStrategy realized =
      engine::realize_strategy(base, s, registry, rng);
  net::BandwidthTrace trace(100.0, {100.0});
  FieldSession session(realized, /*cloud=*/nullptr,
                       latency::ComputeLatencyModel(latency::phone_profile()),
                       trace, 10.0);
  EXPECT_FALSE(session.offloads());
  util::Rng data_rng(55);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, data_rng, 0.3f);
  const FieldOutcome outcome = session.infer(x, 0.0);
  EXPECT_EQ(outcome.transfer_ms, 0.0);
  EXPECT_LT(tensor::Tensor::max_abs_diff(outcome.logits, base.forward(x)),
            1e-5f);
}

TEST(FieldSession, OffloadingStrategyNeedsAnExecutor) {
  nn::Model base = nn::make_tiny_cnn(4, 8, 56);
  Strategy s;
  s.cut = 3;
  s.plan.assign(base.size(), TechniqueId::kNone);
  util::Rng rng(57);
  compress::TechniqueRegistry registry;
  const engine::RealizedStrategy realized =
      engine::realize_strategy(base, s, registry, rng);
  EXPECT_THROW(FieldSession(realized, /*cloud=*/nullptr,
                            latency::ComputeLatencyModel(latency::phone_profile()),
                            net::BandwidthTrace(100.0, {100.0}), 10.0),
               std::invalid_argument);
}

TEST(DecisionEngineFacade, EndToEndTinyConfiguration) {
  EngineConfig config;
  config.edge_device = "phone";
  config.scene = net::scene_by_name("WiFi (weak) indoor");
  config.base_accuracy = 0.84;
  config.num_blocks = 3;
  config.trace_duration_ms = 20'000.0;
  config.tree_config.episodes = 8;
  config.tree_config.branch_config.episodes = 15;
  DecisionEngine engine(nn::make_alexnet(), std::move(config));
  EXPECT_FALSE(engine.trained());
  EXPECT_THROW(engine.tree(), std::logic_error);

  engine.train_offline();
  ASSERT_TRUE(engine.trained());
  EXPECT_GT(engine.search_result().tree_reward, 0.0);
  ASSERT_EQ(engine.fork_bandwidths().size(), 2u);
  EXPECT_LT(engine.fork_bandwidths()[0], engine.fork_bandwidths()[1]);

  data::SynthCifar dataset(32, 10, 60);
  const auto batch = dataset.make_batch(0, 1);
  const auto outcome = engine.infer(batch.images, 5'000.0);
  EXPECT_EQ(outcome.logits.shape(), (tensor::Shape{1, 10}));
  EXPECT_GT(outcome.latency_ms, 0.0);
  EXPECT_FALSE(outcome.forks.empty());
  EXPECT_LE(outcome.strategy.cut, engine.base().size());
}

TEST(DecisionEngineFacade, RunnerIntegration) {
  EngineConfig config;
  config.scene = net::scene_by_name("4G indoor static");
  config.base_accuracy = 0.84;
  config.trace_duration_ms = 20'000.0;
  config.tree_config.episodes = 6;
  config.tree_config.branch_config.episodes = 10;
  DecisionEngine engine(nn::make_alexnet(), std::move(config));
  engine.train_offline();
  RunnerConfig rc;
  rc.inferences = 5;
  const InferenceRunner runner(engine.evaluator(), engine.trace(),
                               engine.boundaries(), rc);
  const RunStats stats = runner.run_tree(engine.tree());
  EXPECT_EQ(stats.inferences, 5);
  EXPECT_GT(stats.mean_reward, 100.0);
}

}  // namespace
}  // namespace cadmc::runtime
