// Quickstart: train a context-aware model tree for VGG11 on a phone under a
// fluctuating 4G link, then run online inferences that compose the DNN from
// the tree per the current bandwidth (Alg. 2). Metric/span collection is on:
// the run ends with an observability report and a JSONL event stream
// (quickstart_metrics.jsonl) covering the offline search and each infer().
//
//   ./examples/quickstart
#include <cstdio>

#include "nn/factory.h"
#include "obs/export.h"
#include "runtime/decision_engine.h"
#include "util/logging.h"

using namespace cadmc;

int main() {
  util::set_log_level(util::LogLevel::kInfo);
  obs::set_enabled(true);

  // 1. Base DNN + deployment context.
  runtime::EngineConfig config;
  config.edge_device = "phone";
  config.scene = net::scene_by_name("4G outdoor quick");
  config.base_accuracy = 0.9201;
  config.tree_config.episodes = 100;  // quick demo; benches use more
  config.tree_config.branch_config.episodes = 150;
  runtime::DecisionEngine engine(nn::make_vgg11(), std::move(config));

  std::printf("Base model: %zu layers, %lld MACCs, %lld params\n",
              engine.base().size(),
              static_cast<long long>(engine.base().total_macc()),
              static_cast<long long>(engine.base().param_count()));
  std::printf("Scene: %s, fork bandwidths (poor/good): %.2f / %.2f Mbps\n",
              "4G outdoor quick",
              latency::bytes_per_ms_to_mbps(engine.fork_bandwidths()[0]),
              latency::bytes_per_ms_to_mbps(engine.fork_bandwidths()[1]));

  // 2. Offline phase: RL search produces the model tree.
  engine.train_offline();
  const auto& result = engine.search_result();
  std::printf("\nOffline search done: tree reward %.2f (best branch %.2f)\n",
              result.tree_reward, result.best_branch_reward);
  std::printf("Model tree:\n%s\n", engine.tree().to_string().c_str());

  // 3. Online phase: compose + run a real forward pass at three moments of
  // the trace with different link states.
  data::SynthCifar dataset(32, 10, /*seed=*/99);
  for (double t_ms : {6'000.0, 24'000.0, 48'000.0}) {
    const auto example = dataset.make_example(7);
    const auto batch = dataset.make_batch(7, 1);
    auto outcome = engine.infer(batch.images, t_ms);
    std::printf(
        "t=%5.0fms bandwidth %.2f Mbps -> forks [",
        t_ms, latency::bytes_per_ms_to_mbps(engine.trace().at(t_ms)));
    for (std::size_t i = 0; i < outcome.forks.size(); ++i)
      std::printf("%s%d", i ? "," : "", outcome.forks[i]);
    std::printf("], cut@%zu/%zu, est. latency %.1f ms, prediction=%d (label=%d)\n",
                outcome.strategy.cut, engine.base().size(),
                outcome.latency_ms, outcome.logits.argmax(), example.label);
  }
  // 4. Observability: aggregate run report + raw JSONL event stream. The
  // spans map onto the Fig. 2 pipeline: compose (Alg. 2 walk) -> edge_exec
  // -> transfer -> cloud_exec, under one "infer" parent per call.
  const auto& registry = obs::MetricsRegistry::global();
  std::printf("\nRun report:\n%s",
              obs::render_report(obs::make_report(registry)).c_str());
  const char* metrics_path = "quickstart_metrics.jsonl";
  if (obs::export_jsonl(registry, metrics_path))
    std::printf("metrics stream saved to %s\n", metrics_path);

  std::printf("\nQuickstart finished.\n");
  return 0;
}
