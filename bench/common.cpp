#include "bench/common.h"

#include <cstdio>

#include "latency/device_profile.h"
#include "obs/export.h"
#include "util/string_util.h"

namespace cadmc::bench {

using engine::Strategy;

engine::Strategy ContextArtifacts::surgery_strategy() const {
  Strategy s;
  s.cut = surgery_cut;
  s.plan.assign(base->size(), compress::TechniqueId::kNone);
  return s;
}

double paper_base_accuracy(const std::string& model_name) {
  return model_name == "VGG11" ? 0.9201 : 0.8404;
}

std::string fmt(double v, int decimals) {
  return util::format_double(v, decimals);
}

void emit_metrics_sidecar(const std::string& csv_path) {
  if (!obs::init_from_env()) return;
  const std::string path = csv_path + ".metrics.jsonl";
  if (obs::export_jsonl(obs::MetricsRegistry::global(), path))
    std::printf("metrics sidecar saved to %s\n", path.c_str());
  else
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

ContextArtifacts train_context(const net::EvalContext& context,
                               const BenchConfig& config) {
  obs::init_from_env();
  ContextArtifacts art;
  art.model_name = context.model;
  art.device_name = context.device == "phone" ? "Phone" : "TX2";
  art.scene_name = context.scene.name;
  art.base = std::make_shared<nn::Model>(
      context.model == "VGG11" ? nn::make_vgg11() : nn::make_alexnet());
  art.boundaries = nn::block_boundaries(*art.base, 3);  // N = 3 (Sec. VII)

  const std::uint64_t scene_seed =
      config.seed ^ util::fnv1a(context.model + context.device + context.scene.name);
  art.trace = net::generate_trace(context.scene.trace, config.trace_duration_ms,
                                  scene_seed);
  // K = 2 bandwidth types: lower/upper quartiles (Sec. VII setup).
  art.fork_bandwidths = {art.trace.quantile(0.25), art.trace.quantile(0.75)};

  latency::TransferModel transfer;
  transfer.rtt_ms = context.scene.rtt_ms;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(latency::profile_by_name(context.device)),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  art.evaluator = std::make_unique<engine::StrategyEvaluator>(
      *art.base, std::move(pe),
      engine::AccuracyModel(paper_base_accuracy(context.model),
                            art.base->size(), scene_seed ^ 0xACC));

  const auto fork_average = [&](const engine::Strategy& s) {
    double total = 0.0;
    for (double bw : art.fork_bandwidths)
      total += art.evaluator->evaluate(s, bw).reward;
    return total / static_cast<double>(art.fork_bandwidths.size());
  };

  // --- Dynamic DNN Surgery baseline: min-cut at the median bandwidth.
  const double median_bw = art.trace.quantile(0.5);
  art.surgery_cut = partition::surgery_cut_for_chain(
      *art.base, art.evaluator->partition_eval(), median_bw);
  art.surgery_offline_reward = fork_average(art.surgery_strategy());

  // --- Optimal branch (Alg. 1) at the median bandwidth.
  engine::BranchSearchConfig branch_config;
  branch_config.episodes = config.branch_episodes;
  branch_config.seed = scene_seed ^ 0xB1;
  branch_config.seed_strategies.push_back(art.surgery_strategy());
  engine::BranchSearch branch_search(*art.evaluator, branch_config);
  art.branch = branch_search.run(median_bw);
  art.branch_offline_reward = fork_average(art.branch.best);

  // --- Context-aware model tree (Alg. 3), boosted with both the per-fork
  // branches and the median branch.
  tree::TreeSearchConfig tree_config;
  tree_config.episodes = config.tree_episodes;
  tree_config.seed = scene_seed ^ 0x77;
  tree_config.branch_config.episodes = config.branch_episodes;
  tree_config.branch_config.seed_strategies.push_back(art.surgery_strategy());
  tree_config.extra_boost_strategies.push_back(art.branch.best);
  tree_config.extra_boost_strategies.push_back(art.surgery_strategy());
  tree::TreeSearch tree_search(*art.evaluator, art.boundaries,
                               art.fork_bandwidths, tree_config);
  art.tree = tree_search.run();
  return art;
}

std::vector<ContextArtifacts> train_all_contexts(const BenchConfig& config) {
  std::vector<ContextArtifacts> out;
  for (const net::EvalContext& context : net::paper_contexts())
    out.push_back(train_context(context, config));
  return out;
}

PolicyStats run_policies(const ContextArtifacts& art, runtime::TimingMode mode,
                         int inferences, std::uint64_t seed) {
  runtime::RunnerConfig rc;
  rc.mode = mode;
  rc.inferences = inferences;
  rc.seed = seed;
  runtime::InferenceRunner runner(*art.evaluator, art.trace, art.boundaries, rc);
  PolicyStats stats;
  stats.surgery = runner.run_surgery();
  stats.branch = runner.run_branch(art.branch.best);
  stats.tree = runner.run_tree(art.tree.tree);
  return stats;
}

}  // namespace cadmc::bench
