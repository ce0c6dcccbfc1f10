// Parallel-search determinism and concurrency tests (`ctest -L search`):
//  * fixed-seed tree search and random search produce bit-identical results
//    for --threads 1 vs --threads 4 (the contract the CLI documents),
//  * a ThreadSanitizer-friendly stress test hammering the evaluator's
//    sharded caches from 8 threads,
//  * regression tests for the determinism bugfixes: call-order-independent
//    strategy evaluation, the root honoring backward_averaging, and forced
//    fair-chance actions being excluded from the policy gradient.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/branch_search.h"
#include "latency/device_profile.h"
#include "nn/factory.h"
#include "obs/metrics.h"
#include "tree/tree_search.h"
#include "util/thread_pool.h"

namespace cadmc {
namespace {

using compress::TechniqueId;
using engine::AccuracyModel;
using engine::Evaluation;
using engine::Strategy;
using engine::StrategyEvaluator;
using tree::ModelTree;
using tree::TreeNode;
using tree::TreeSearch;
using tree::TreeSearchConfig;
using tree::TreeSearchResult;

partition::PartitionEvaluator make_pe() {
  latency::TransferModel transfer;
  transfer.rtt_ms = 18.0;
  return partition::PartitionEvaluator(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
}

/// Restores the configured thread count on scope exit, so a failing test
/// cannot leak its override into the rest of the binary.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(std::size_t threads)
      : saved_(util::configured_threads()) {
    util::set_configured_threads(threads);
  }
  ~ThreadsGuard() { util::set_configured_threads(saved_); }

 private:
  std::size_t saved_;
};

class SearchFixture : public ::testing::Test {
 protected:
  SearchFixture()
      : base_(nn::make_alexnet()),
        boundaries_(nn::block_boundaries(base_, 3)),
        evaluator_(base_, make_pe(), AccuracyModel(0.8404, base_.size(), 21)) {}

  TreeSearchConfig small_config() const {
    TreeSearchConfig config;
    config.episodes = 6;
    config.seed = 91;
    config.branch_config.episodes = 15;
    return config;
  }

  TreeSearchResult run_with_threads(std::size_t threads) const {
    ThreadsGuard guard(threads);
    // A fresh evaluator per run: the runs must agree because evaluation is
    // deterministic, not because one run warmed the other's caches.
    StrategyEvaluator evaluator(base_, make_pe(),
                                AccuracyModel(0.8404, base_.size(), 21));
    TreeSearch search(evaluator, boundaries_, {100.0, 500.0}, small_config());
    return search.run();
  }

  nn::Model base_;
  std::vector<std::size_t> boundaries_;
  StrategyEvaluator evaluator_;
};

TEST_F(SearchFixture, TreeSearchBitIdenticalForOneVsFourThreads) {
  const TreeSearchResult serial = run_with_threads(1);
  const TreeSearchResult parallel = run_with_threads(4);

  EXPECT_EQ(serial.tree_reward, parallel.tree_reward);
  EXPECT_EQ(serial.best_branch_reward, parallel.best_branch_reward);
  EXPECT_EQ(serial.tree.to_string(), parallel.tree.to_string());
  ASSERT_EQ(serial.branch_results.size(), parallel.branch_results.size());
  for (std::size_t k = 0; k < serial.branch_results.size(); ++k) {
    EXPECT_EQ(serial.branch_results[k].best_eval.reward,
              parallel.branch_results[k].best_eval.reward);
    EXPECT_EQ(serial.branch_results[k].best.key(),
              parallel.branch_results[k].best.key());
  }
  ASSERT_EQ(serial.log.episodes(), parallel.log.episodes());
  for (std::size_t e = 0; e < serial.log.episodes(); ++e)
    EXPECT_EQ(serial.log.rewards()[e], parallel.log.rewards()[e]);
}

// The branch searches run concurrently, so the gauge is set once from the
// finished result rather than by whichever search wrote last.
TEST_F(SearchFixture, BranchBestRewardGaugeIsTheBestBranch) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::MetricsRegistry::global().reset();
  const TreeSearchResult result = run_with_threads(4);
  const auto gauges = obs::MetricsRegistry::global().gauge_values();
  obs::set_enabled(was_enabled);
  obs::MetricsRegistry::global().reset();

  ASSERT_EQ(result.branch_results.size(), 2u);
  double best = result.branch_results[0].best_eval.reward;
  for (const auto& br : result.branch_results)
    best = std::max(best, br.best_eval.reward);
  ASSERT_EQ(gauges.count("cadmc.search.branch_best_reward"), 1u);
  EXPECT_EQ(gauges.at("cadmc.search.branch_best_reward"), best);
}

TEST_F(SearchFixture, RandomSearchBitIdenticalForOneVsFourThreads) {
  const auto space = engine::make_strategy_space(evaluator_);
  const auto objective = [&](const std::vector<int>& genome) {
    return evaluator_
        .evaluate(engine::genome_to_strategy(evaluator_, genome), 250.0)
        .reward;
  };
  rl::SearchOutcome serial, parallel;
  {
    ThreadsGuard guard(1);
    serial = rl::random_search(space, objective, 60, 0x5EED);
  }
  {
    ThreadsGuard guard(4);
    parallel = rl::random_search(space, objective, 60, 0x5EED);
  }
  EXPECT_EQ(serial.best_reward, parallel.best_reward);
  EXPECT_EQ(serial.best_genome, parallel.best_genome);
  ASSERT_EQ(serial.log.episodes(), parallel.log.episodes());
  for (std::size_t e = 0; e < serial.log.episodes(); ++e)
    EXPECT_EQ(serial.log.rewards()[e], parallel.log.rewards()[e]);
}

TEST_F(SearchFixture, ShardedCacheStressEightThreads) {
  // Reference values from a serial evaluator.
  std::vector<Strategy> strategies;
  for (std::size_t cut = 0; cut <= base_.size(); ++cut) {
    Strategy s;
    s.cut = cut;
    s.plan.assign(base_.size(), TechniqueId::kNone);
    strategies.push_back(engine::sanitize_strategy(evaluator_, s));
    if (cut > 0) {
      Strategy c = s;
      c.plan[cut - 1] = TechniqueId::kF1Svd;
      strategies.push_back(engine::sanitize_strategy(evaluator_, c));
    }
  }
  std::vector<double> expected(strategies.size());
  for (std::size_t i = 0; i < strategies.size(); ++i)
    expected[i] = evaluator_.evaluate(strategies[i], 250.0).reward;

  // Hammer a fresh evaluator's caches: 8 threads, every strategy evaluated
  // repeatedly and concurrently, mixing cold misses, racing inserts and
  // hits. Run under TSan via the CI thread-sanitize job.
  ThreadsGuard guard(8);
  StrategyEvaluator fresh(base_, make_pe(),
                          AccuracyModel(0.8404, base_.size(), 21));
  constexpr std::size_t kRounds = 8;
  const std::size_t tasks = strategies.size() * kRounds;
  std::vector<double> got(tasks);
  util::parallel_for(tasks, [&](std::size_t t) {
    const std::size_t i = t % strategies.size();
    got[t] = fresh.evaluate(strategies[i], 250.0).reward;
    // Exercise the mask cache from every thread too.
    fresh.technique_masks(0, strategies[i].cut);
  });
  for (std::size_t t = 0; t < tasks; ++t)
    EXPECT_EQ(got[t], expected[t % strategies.size()]) << "task " << t;
}

TEST_F(SearchFixture, EvaluationIndependentOfCallOrder) {
  // Regression for the realize_seed_++ bug: with a mutating counter the
  // realization RNG depended on how many evaluations ran before this one.
  Strategy a;
  a.cut = base_.size();
  a.plan.assign(base_.size(), TechniqueId::kNone);
  a = engine::sanitize_strategy(evaluator_, a);
  Strategy b = a;
  b.cut = boundaries_[1];
  for (std::size_t i = b.cut; i < b.plan.size(); ++i)
    b.plan[i] = TechniqueId::kNone;
  b.plan[0] = TechniqueId::kF1Svd;
  b = engine::sanitize_strategy(evaluator_, b);

  StrategyEvaluator ab(base_, make_pe(),
                       AccuracyModel(0.8404, base_.size(), 21));
  StrategyEvaluator ba(base_, make_pe(),
                       AccuracyModel(0.8404, base_.size(), 21));
  const Evaluation a_first = ab.evaluate(a, 250.0);
  const Evaluation b_second = ab.evaluate(b, 250.0);
  const Evaluation b_first = ba.evaluate(b, 250.0);
  const Evaluation a_second = ba.evaluate(a, 250.0);
  EXPECT_EQ(a_first.reward, a_second.reward);
  EXPECT_EQ(a_first.latency_ms, a_second.latency_ms);
  EXPECT_EQ(b_first.reward, b_second.reward);
  EXPECT_EQ(b_first.latency_ms, b_second.latency_ms);
}

TEST_F(SearchFixture, RootHonorsBackwardAveragingFlag) {
  for (const bool averaging : {true, false}) {
    TreeSearchConfig config = small_config();
    config.backward_averaging = averaging;
    config.boost_with_branches = false;
    TreeSearch search(evaluator_, boundaries_, {100.0, 500.0}, config);
    ModelTree tree(base_, boundaries_, {100.0, 500.0});
    search.estimate_backward(tree);
    if (averaging) {
      double sum = 0.0;
      for (const TreeNode& c : tree.root().children) sum += c.reward;
      EXPECT_EQ(tree.root().reward,
                sum / static_cast<double>(tree.root().children.size()));
      EXPECT_NE(tree.root().reward, 0.0);
    } else {
      // Leaf-only rewards: the root must stay 0 exactly like every other
      // interior node (it used to average its children unconditionally).
      EXPECT_EQ(tree.root().reward, 0.0);
      for (const TreeNode& c : tree.root().children) EXPECT_EQ(c.reward, 0.0);
    }
  }
}

TEST_F(SearchFixture, ForcedActionsAreExcludedFromPolicyGradient) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto counter_value = [](const char* name) {
    const auto values = obs::MetricsRegistry::global().counter_values();
    const auto it = values.find(name);
    return it != values.end() ? it->second : 0;
  };
  const std::int64_t forced_before = counter_value("cadmc.search.forced_actions");
  const std::int64_t skips_before = counter_value("cadmc.search.forced_grad_skips");

  TreeSearchConfig config = small_config();
  config.boost_with_branches = false;
  config.fair_chance = true;
  config.alpha0 = 1.0;                     // force_prob = 1 at tree level 0
  config.alpha_decay_episodes = 1 << 20;   // no visible decay over 6 episodes
  TreeSearch search(evaluator_, boundaries_, {100.0, 500.0}, config);
  search.run();

  const std::int64_t forced = counter_value("cadmc.search.forced_actions") - forced_before;
  const std::int64_t skips = counter_value("cadmc.search.forced_grad_skips") - skips_before;
  obs::set_enabled(was_enabled);
  // Level 0 is forced every episode, and every forced decision must skip
  // exactly one partition-gradient accumulation.
  EXPECT_GE(forced, static_cast<std::int64_t>(config.episodes));
  EXPECT_EQ(skips, forced);
}

TEST_F(SearchFixture, CacheMetricsCountHitsMissesInserts) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto counter_value = [](const std::string& name) {
    const auto values = obs::MetricsRegistry::global().counter_values();
    const auto it = values.find(name);
    return it != values.end() ? it->second : 0;
  };
  const std::int64_t miss_before = counter_value("cadmc.eval.cache.memo.miss");
  const std::int64_t hit_before = counter_value("cadmc.eval.cache.memo.hit");
  const std::int64_t insert_before = counter_value("cadmc.eval.cache.memo.insert");

  StrategyEvaluator fresh(base_, make_pe(),
                          AccuracyModel(0.8404, base_.size(), 21));
  Strategy s;
  s.cut = base_.size();
  s.plan.assign(base_.size(), TechniqueId::kNone);
  fresh.evaluate(s, 250.0);
  fresh.evaluate(s, 250.0);
  obs::set_enabled(was_enabled);

  EXPECT_EQ(counter_value("cadmc.eval.cache.memo.miss") - miss_before, 1);
  EXPECT_EQ(counter_value("cadmc.eval.cache.memo.hit") - hit_before, 1);
  EXPECT_EQ(counter_value("cadmc.eval.cache.memo.insert") - insert_before, 1);
  EXPECT_EQ(fresh.memo_size(), 1u);
}

}  // namespace
}  // namespace cadmc
