// Engine tests: the Eqn. (7) reward with the paper's normalization
// (including a literal Table IV cross-check), the calibrated accuracy
// model, strategy realization/evaluation consistency, memoization, and the
// Alg. 1 branch search beating undirected baselines on the same budget.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "engine/accuracy_model.h"

#include "nn/loss.h"
#include "nn/optimizer.h"
#include "engine/branch_search.h"
#include "engine/reward.h"
#include "engine/strategy.h"
#include "latency/device_profile.h"
#include "nn/factory.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/decision_engine.h"

namespace cadmc::engine {
namespace {

using compress::TechniqueId;

partition::PartitionEvaluator make_pe(const char* device = "phone",
                                      double rtt = 18.0) {
  latency::TransferModel transfer;
  transfer.rtt_ms = rtt;
  return partition::PartitionEvaluator(
      latency::ComputeLatencyModel(latency::profile_by_name(device)),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
}

TEST(Reward, NormalizationBounds) {
  EXPECT_DOUBLE_EQ(reward(1.0, 0.0), 400.0);
  EXPECT_DOUBLE_EQ(reward(0.5, 500.0), 0.0);
  EXPECT_DOUBLE_EQ(reward(0.3, 700.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(reward(1.2, -5.0), 400.0); // clamped
  // N1 spans [0, 100] over accuracy [50%, 100%], N2 [0, 300] over
  // latency [500 ms, 0 ms].
  EXPECT_DOUBLE_EQ(accuracy_reward(0.5), 0.0);
  EXPECT_DOUBLE_EQ(accuracy_reward(1.0), 100.0);
  EXPECT_DOUBLE_EQ(latency_reward(500.0), 0.0);
  EXPECT_DOUBLE_EQ(latency_reward(0.0), 300.0);
}

TEST(Reward, PaperTableIvExample) {
  // Table IV, VGG11 phone "4G indoor static", Surgery: accuracy 92.01%,
  // latency 80.62 ms => reward 335.65.
  EXPECT_NEAR(reward(0.9201, 80.62), 335.65, 0.05);
}

TEST(Reward, MonotoneInBothArguments) {
  EXPECT_GT(reward(0.92, 50.0), reward(0.90, 50.0));
  EXPECT_GT(reward(0.92, 50.0), reward(0.92, 60.0));
}

TEST(Reward, OneMsWorthHalfAPointOfAccuracy) {
  // With the paper's weights, 1% accuracy = 2 points and 1 ms = 0.6 points.
  EXPECT_NEAR(accuracy_reward(0.93) - accuracy_reward(0.92), 2.0, 1e-9);
  EXPECT_NEAR(latency_reward(99.0) - latency_reward(100.0), 0.6, 1e-9);
  EXPECT_NEAR(reward(0.93, 100.0) - reward(0.92, 100.0), 2.0, 1e-9);
  EXPECT_NEAR(reward(0.92, 99.0) - reward(0.92, 100.0), 0.6, 1e-9);
}

TEST(AccuracyModel, NoCompressionIsBaseAccuracy) {
  AccuracyModel am(0.9201, 10, 1);
  EXPECT_DOUBLE_EQ(am.estimate(std::vector<TechniqueId>(10, TechniqueId::kNone)),
                   0.9201);
}

TEST(AccuracyModel, SingleTechniqueCostsUnderTwoPercent) {
  AccuracyModel am(0.9201, 10, 2);
  for (int t = 1; t < compress::kTechniqueCount; ++t) {
    std::vector<TechniqueId> plan(10, TechniqueId::kNone);
    plan[5] = static_cast<TechniqueId>(t);
    const double acc = am.estimate(plan);
    EXPECT_LT(acc, 0.9201);
    EXPECT_GT(acc, 0.9201 - 0.02);
  }
}

TEST(AccuracyModel, LossGrowsWithMoreCompression) {
  AccuracyModel am(0.92, 12, 3);
  std::vector<TechniqueId> light(12, TechniqueId::kNone);
  light[3] = TechniqueId::kC1MobileNet;
  std::vector<TechniqueId> heavy = light;
  heavy[5] = TechniqueId::kC3SqueezeNet;
  heavy[7] = TechniqueId::kF1Svd;
  EXPECT_LT(am.estimate(heavy), am.estimate(light));
}

TEST(AccuracyModel, SuperlinearCompounding) {
  // Joint loss exceeds the sum of individual losses (the compounding term).
  AccuracyModel am(0.92, 12, 4);
  std::vector<TechniqueId> a(12, TechniqueId::kNone), b(12, TechniqueId::kNone);
  a[2] = TechniqueId::kC2MobileNetV2;
  b[8] = TechniqueId::kC3SqueezeNet;
  std::vector<TechniqueId> both = a;
  both[8] = TechniqueId::kC3SqueezeNet;
  const double loss_a = 0.92 - am.estimate(a);
  const double loss_b = 0.92 - am.estimate(b);
  const double loss_both = 0.92 - am.estimate(both);
  EXPECT_GT(loss_both, loss_a + loss_b);
}

TEST(AccuracyModel, EarlyLayersMoreSensitive) {
  AccuracyModel am(0.92, 12, 5);
  // Average over techniques to wash out per-site jitter.
  double early = 0.0, late = 0.0;
  for (int t = 1; t < compress::kTechniqueCount; ++t) {
    early += am.unit_degradation(1, static_cast<TechniqueId>(t));
    late += am.unit_degradation(10, static_cast<TechniqueId>(t));
  }
  EXPECT_GT(early, late);
}

TEST(AccuracyModel, DeterministicAcrossInstances) {
  AccuracyModel a(0.92, 10, 42), b(0.92, 10, 42);
  std::vector<TechniqueId> plan(10, TechniqueId::kNone);
  plan[4] = TechniqueId::kW1FilterPrune;
  EXPECT_DOUBLE_EQ(a.estimate(plan), b.estimate(plan));
}

TEST(AccuracyModel, LossCapped) {
  AccuracyModel am(0.92, 20, 6);
  std::vector<TechniqueId> everything(20, TechniqueId::kC3SqueezeNet);
  EXPECT_GE(am.estimate(everything), 0.92 - 0.25 - 1e-9);
}

TEST(RealEval, DistilledTinyModelRetainsAccuracy) {
  // End-to-end RealEval path: train a tiny CNN on SynthCIFAR, use it as the
  // base; a distilled copy must stay close to the base accuracy.
  data::SynthCifar dataset(12, 4, 7, /*noise=*/0.15);
  nn::Model base = nn::make_tiny_cnn(4, 12, 8);
  {
    // Pre-train the base with hard labels.
    data::DataLoader loader(dataset, 0, 256, 32);
    nn::Sgd sgd(0.05, 0.9);
    for (int step = 0; step < 40; ++step) {
      const auto batch = loader.batch(step);
      const auto logits = base.forward_train(batch.images);
      const auto loss = nn::cross_entropy(logits, batch.labels);
      base.zero_grad();
      base.backward(loss.grad);
      sgd.step(base.params(), base.grads());
    }
  }
  RealAccuracyEvaluator evaluator(base, dataset, 256, 128, 32,
                                  /*train_steps=*/150, /*lr=*/0.05);
  const double base_acc = evaluator.base_accuracy();
  EXPECT_GT(base_acc, 0.5);  // well above 0.25 chance
  nn::Model student = nn::make_tiny_cnn(4, 12, 9);
  const double student_acc = evaluator.train_and_evaluate(student);
  EXPECT_GT(student_acc, base_acc - 0.25);
}

class StrategyFixture : public ::testing::Test {
 protected:
  StrategyFixture()
      : base_(nn::make_alexnet()),
        evaluator_(base_, make_pe(), AccuracyModel(0.8404, base_.size(), 11)) {}

  nn::Model base_;
  StrategyEvaluator evaluator_;
};

TEST_F(StrategyFixture, NoCompressionMatchesPartitionEvaluator) {
  Strategy s;
  s.cut = 5;
  s.plan.assign(base_.size(), TechniqueId::kNone);
  const Evaluation eval = evaluator_.evaluate(s, 300.0);
  const auto direct = make_pe().evaluate(base_, 5, 300.0);
  EXPECT_NEAR(eval.latency_ms, direct.total_ms(), 1e-6);
  EXPECT_DOUBLE_EQ(eval.accuracy, 0.8404);
}

TEST_F(StrategyFixture, CompressionReducesEdgeLatency) {
  Strategy plain, compressed;
  plain.cut = compressed.cut = base_.size();
  plain.plan.assign(base_.size(), TechniqueId::kNone);
  compressed.plan = plain.plan;
  compressed.plan[3] = TechniqueId::kC1MobileNet;  // conv at index 3
  const Evaluation e1 = evaluator_.evaluate(plain, 300.0);
  const Evaluation e2 = evaluator_.evaluate(compressed, 300.0);
  EXPECT_LT(e2.latency_ms, e1.latency_ms);
  EXPECT_LT(e2.accuracy, e1.accuracy);
}

TEST_F(StrategyFixture, MemoizationCachesRepeatEvaluations) {
  Strategy s;
  s.cut = base_.size();
  s.plan.assign(base_.size(), TechniqueId::kNone);
  s.plan[3] = TechniqueId::kC3SqueezeNet;
  const std::size_t before = evaluator_.memo_size();
  const Evaluation e1 = evaluator_.evaluate(s, 250.0);
  const std::size_t mid = evaluator_.memo_size();
  const Evaluation e2 = evaluator_.evaluate(s, 250.0);
  EXPECT_GT(mid, before);
  EXPECT_EQ(evaluator_.memo_size(), mid);
  EXPECT_DOUBLE_EQ(e1.reward, e2.reward);
}

TEST_F(StrategyFixture, TrajectoryTransferPricedAtCutBlockBandwidth) {
  // Two blocks; cut inside block 0 => transfer priced at block-0 bandwidth.
  const auto boundaries = nn::block_boundaries(base_, 2);
  Strategy s;
  s.cut = 1;  // inside block 0
  s.plan.assign(base_.size(), TechniqueId::kNone);
  const Evaluation poor_first =
      evaluator_.evaluate_trajectory(s, boundaries, {50.0, 5000.0});
  const Evaluation rich_first =
      evaluator_.evaluate_trajectory(s, boundaries, {5000.0, 50.0});
  EXPECT_GT(poor_first.latency_ms, rich_first.latency_ms);
}

TEST_F(StrategyFixture, PlanOnCloudSideRejected) {
  Strategy s;
  s.cut = 2;
  s.plan.assign(base_.size(), TechniqueId::kNone);
  s.plan[5] = TechniqueId::kF1Svd;  // beyond the cut
  util::Rng rng(12);
  compress::TechniqueRegistry registry;
  EXPECT_THROW(realize_strategy(base_, s, registry, rng),
               std::invalid_argument);
}

TEST_F(StrategyFixture, RealizeProducesRunnableModel) {
  Strategy s;
  s.cut = 8;
  s.plan.assign(base_.size(), TechniqueId::kNone);
  s.plan[3] = TechniqueId::kC1MobileNet;
  s.plan[6] = TechniqueId::kC2MobileNetV2;
  util::Rng rng(13);
  compress::TechniqueRegistry registry;
  RealizedStrategy realized = realize_strategy(base_, s, registry, rng);
  EXPECT_GT(realized.model.size(), 0u);
  EXPECT_LE(realized.cut, realized.model.size());
  util::Rng data_rng(14);
  const auto x = tensor::Tensor::randn({1, 3, 32, 32}, data_rng, 0.3f);
  EXPECT_EQ(realized.model.forward(x).shape(), (tensor::Shape{1, 10}));
}

TEST_F(StrategyFixture, SanitizeClearsCloudAndInapplicable) {
  Strategy s;
  s.cut = 6;
  s.plan.assign(base_.size(), TechniqueId::kNone);
  s.plan[1] = TechniqueId::kC1MobileNet;  // layer 1 is ReLU: inapplicable
  s.plan[3] = TechniqueId::kC1MobileNet;  // applicable conv
  s.plan[10] = TechniqueId::kF1Svd;       // beyond cut
  const Strategy clean = sanitize_strategy(evaluator_, s);
  EXPECT_EQ(clean.plan[1], TechniqueId::kNone);
  EXPECT_EQ(clean.plan[3], TechniqueId::kC1MobileNet);
  EXPECT_EQ(clean.plan[10], TechniqueId::kNone);
}

TEST_F(StrategyFixture, GenomeMappingProducesValidStrategies) {
  const auto space = make_strategy_space(evaluator_);
  ASSERT_EQ(space.cardinalities.size(), base_.size() + 1);
  util::Rng rng(15);
  for (int i = 0; i < 20; ++i) {
    const auto genome = space.random_genome(rng);
    const Strategy s = genome_to_strategy(evaluator_, genome);
    EXPECT_LE(s.cut, base_.size());
    // Evaluation must not throw for any genome.
    const Evaluation eval = evaluator_.evaluate(s, 200.0);
    EXPECT_GT(eval.reward, 0.0);
    EXPECT_LE(eval.reward, 400.0);
  }
}

TEST_F(StrategyFixture, BranchSearchBeatsMeanRandomReward) {
  const double bw = 250.0;
  BranchSearchConfig config;
  config.episodes = 120;
  config.seed = 16;
  BranchSearch search(evaluator_, config);
  const BranchSearchResult result = search.run(bw);

  // Random baseline on the same budget.
  const auto space = make_strategy_space(evaluator_);
  const auto random = rl::random_search(
      space,
      [&](const std::vector<int>& genome) {
        return evaluator_.evaluate(genome_to_strategy(evaluator_, genome), bw)
            .reward;
      },
      120, 17);
  EXPECT_GE(result.best_eval.reward + 1.0, random.best_reward);
  // And the RL search must improve over its own average (it learned).
  double mean = 0.0;
  for (double r : result.log.rewards()) mean += r;
  mean /= result.log.episodes();
  EXPECT_GT(result.best_eval.reward, mean);
}

TEST_F(StrategyFixture, EdgeSliceLatencyCacheConsistent) {
  Strategy s;
  s.cut = 6;
  s.plan.assign(base_.size(), TechniqueId::kNone);
  s.plan[3] = TechniqueId::kC3SqueezeNet;
  const double a = evaluator_.edge_slice_latency_ms(s, 0, 6);
  const double b = evaluator_.edge_slice_latency_ms(s, 0, 6);
  EXPECT_DOUBLE_EQ(a, b);
  // Uncompressed slice latency must exceed the compressed one.
  Strategy plain = s;
  plain.plan[3] = TechniqueId::kNone;
  EXPECT_GT(evaluator_.edge_slice_latency_ms(plain, 0, 6), a);
}

TEST_F(StrategyFixture, CloudSuffixDecreasesWithCut) {
  double prev = 1e18;
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, base_.size()}) {
    const double ms = evaluator_.cloud_suffix_latency_ms(cut);
    EXPECT_LE(ms, prev);
    prev = ms;
  }
  EXPECT_DOUBLE_EQ(evaluator_.cloud_suffix_latency_ms(base_.size()), 0.0);
}

TEST(Observability, DecisionEngineInferPopulatesSpansAndCounters) {
  // Every producer records into the global registry, so one infer() is one
  // causal trace: the pipeline spans and the kernel spans under them.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  obs::set_enabled(true);

  runtime::EngineConfig config;
  config.scene = net::scene_by_name("4G indoor static");
  config.base_accuracy = 0.84;
  config.trace_duration_ms = 20'000.0;
  config.tree_config.episodes = 5;
  config.tree_config.branch_config.episodes = 8;
  runtime::DecisionEngine engine(nn::make_alexnet(), std::move(config));
  engine.train_offline();

  const obs::RunReport offline = obs::make_report(registry);
  EXPECT_EQ(offline.profile.by_name.at("train_offline").depth, 0);
  EXPECT_GT(offline.profile.by_name.at("realize_tree").depth, 0);
  EXPECT_EQ(offline.counters.at("cadmc.search.episodes"), 5);
  EXPECT_GE(offline.counters.at("cadmc.search.branch_episodes"), 8);
  registry.reset();

  util::Rng rng(61);
  const auto x = tensor::Tensor::randn({1, 3, 32, 32}, rng, 0.3f);
  (void)engine.infer(x, 0.0);
  obs::set_enabled(false);

  const obs::RunReport report = obs::make_report(registry);
  const auto& spans = report.profile.by_name;
  for (const char* name : {"infer", "compose", "estimate", "edge_exec",
                           "transfer", "cloud_exec"})
    EXPECT_EQ(spans.count(name), 1u) << "missing span: " << name;
  // Paths are realized once, offline; inference only runs them.
  EXPECT_EQ(spans.count("realize"), 0u);
  EXPECT_EQ(spans.at("infer").depth, 0);
  EXPECT_GT(spans.at("compose").depth, 0);
  EXPECT_EQ(report.counters.at("cadmc.runtime.inferences"), 1);
  EXPECT_EQ(report.histograms.at("cadmc.runtime.latency_ms").count, 1u);

  // One trace: every span shares the infer root's trace id, and each
  // kernel span nests under the stage that ran it.
  const std::vector<obs::SpanRecord> records = registry.spans();
  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  const obs::SpanRecord* root = nullptr;
  for (const obs::SpanRecord& s : records) {
    by_id[s.id] = &s;
    if (s.name == "infer") root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  std::size_t kernel_spans = 0;
  for (const obs::SpanRecord& s : records) {
    EXPECT_EQ(s.trace_id, root->trace_id) << s.name;
    if (s.name.rfind("kernel_", 0) != 0) continue;
    ++kernel_spans;
    std::string stage;
    for (auto it = by_id.find(s.parent_id); it != by_id.end();
         it = by_id.find(it->second->parent_id))
      if (it->second->name == "edge_exec" ||
          it->second->name == "cloud_exec") {
        stage = it->second->name;
        break;
      }
    EXPECT_FALSE(stage.empty()) << s.name << " outside edge_exec/cloud_exec";
  }
  EXPECT_GT(kernel_spans, 0u);
  registry.reset();
}

}  // namespace
}  // namespace cadmc::engine
