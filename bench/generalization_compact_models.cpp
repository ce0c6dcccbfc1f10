// Generalization bench (beyond the paper's VGG11/AlexNet): the decision
// engine applied to base models that are ALREADY mobile-optimized
// (MobileNet, SqueezeNet). Expected shape: the compression lever shrinks —
// Table II transforms have little to offer a depthwise/Fire network — so
// the tree's advantage over Dynamic DNN Surgery narrows to what partition
// adaptivity alone provides.
#include <cstdio>

#include "bench/common.h"
#include "latency/device_profile.h"
#include "util/table.h"

using namespace cadmc;
using namespace cadmc::bench;

namespace {
void run_base(const char* name, nn::Model base_model, util::AsciiTable& table) {
  const auto base = std::make_shared<nn::Model>(std::move(base_model));
  const net::Scene scene = net::scene_by_name("4G (weak) indoor");
  const net::BandwidthTrace trace =
      net::generate_trace(scene.trace, 60'000.0, 0x6E4);
  latency::TransferModel transfer;
  transfer.rtt_ms = scene.rtt_ms;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  engine::StrategyEvaluator evaluator(
      *base, std::move(pe), engine::AccuracyModel(0.90, base->size(), 0x6E5));

  const double median = trace.quantile(0.5);
  engine::Strategy surgery;
  surgery.cut =
      partition::surgery_cut_for_chain(*base, evaluator.partition_eval(), median);
  surgery.plan.assign(base->size(), compress::TechniqueId::kNone);
  const auto surgery_eval = evaluator.evaluate(surgery, median);

  tree::TreeSearchConfig config;
  config.episodes = 120;
  config.seed = 0x6E6;
  config.branch_config.episodes = 120;
  config.extra_boost_strategies.push_back(surgery);
  tree::TreeSearch search(evaluator, nn::block_boundaries(*base, 3),
                          {trace.quantile(0.25), trace.quantile(0.75)}, config);
  const auto result = search.run();

  // Count compression decisions in the final tree.
  int compressed_sites = 0;
  const std::function<void(const tree::TreeNode&)> walk =
      [&](const tree::TreeNode& node) {
        for (const tree::TreeNode& c : node.children) {
          for (auto id : c.block_plan)
            compressed_sites += id != compress::TechniqueId::kNone;
          walk(c);
        }
      };
  walk(result.tree.root());

  table.add_row({name, std::to_string(base->size()),
                 fmt(base->total_macc() / 1e6, 1),
                 fmt(evaluator.edge_slice_latency_ms(surgery, 0, base->size())),
                 fmt(surgery_eval.reward), fmt(result.tree_reward),
                 std::to_string(compressed_sites)});
}
}  // namespace

int main() {
  std::printf("=== Generalization: compact base models (4G weak indoor, phone) ===\n\n");
  util::AsciiTable table({"Base model", "Layers", "MMACCs", "Edge full (ms)",
                          "Surgery R", "Tree R", "Compressed sites"});
  run_base("VGG11", nn::make_vgg11(), table);
  run_base("AlexNet", nn::make_alexnet(), table);
  run_base("MobileNet", nn::make_mobilenet(), table);
  run_base("SqueezeNet", nn::make_squeezenet(), table);
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Compact bases (MobileNet/SqueezeNet) are already fast on the edge, so\n"
      "the tree finds few compression sites and its margin over surgery comes\n"
      "from partition adaptivity alone — the engine degrades gracefully when\n"
      "the structural-flexibility lever is spent.\n");
  return 0;
}
