// Scenario: deployment round trip. The offline phase runs "on the server":
// train the controllers, save the model tree and the base weights to disk.
// A separate "device" section then rebuilds everything from the artifacts
// alone and serves inferences — proving the persistence formats carry all
// the state the online phase needs (Fig. 2's offline/online split).
//
//   ./examples/deploy_tree
#include <cstdio>

#include "bench/common.h"
#include "nn/checkpoint.h"
#include "tree/realized_tree.h"
#include "tree/tree_io.h"

using namespace cadmc;

int main() {
  const char* tree_path = "/tmp/cadmc_deploy_tree.txt";
  const char* weights_path = "/tmp/cadmc_deploy_weights.bin";

  // ---------------- Server side: offline phase ----------------
  {
    bench::BenchConfig config;
    config.branch_episodes = 100;
    config.tree_episodes = 80;
    net::EvalContext context{"AlexNet", "phone",
                             net::scene_by_name("WiFi (weak) indoor")};
    std::printf("[server] training decision engine for '%s'...\n",
                context.scene.name.c_str());
    const bench::ContextArtifacts art = bench::train_context(context, config);
    std::printf("[server] tree reward %.2f; saving artifacts\n",
                art.tree.tree_reward);
    if (!tree::save_tree(art.tree.tree, tree_path) ||
        !nn::save_weights(*art.base, weights_path)) {
      std::fprintf(stderr, "[server] failed to write artifacts\n");
      return 1;
    }
    std::printf("[server] wrote %s and %s\n\n", tree_path, weights_path);
  }  // everything trained on the server is gone now

  // ---------------- Device side: online phase ----------------
  std::printf("[device] rebuilding from artifacts only\n");
  nn::Model base = nn::make_alexnet();  // same architecture, fresh weights
  nn::load_weights(base, weights_path);
  const tree::ModelTree model_tree = tree::load_tree(base, tree_path);

  // Realize every path of the tree once, with faithful weights; each
  // composition below then only runs the path its forks select.
  const tree::RealizedTree realized(model_tree, base);
  std::printf("[device] realized %zu paths, %zu layers copied\n",
              realized.num_paths(), realized.owned_layers());
  data::SynthCifar camera(32, 10, 0xDE92);
  for (double mbps : {0.4, 3.0}) {
    const double bw = latency::mbps_to_bytes_per_ms(mbps);
    const auto composition =
        model_tree.compose_online([&](std::size_t) { return bw; });
    const tree::RealizedTree::Path& path = realized.path(composition.forks);
    const auto batch = camera.make_batch(3, 1);
    const auto logits = base.forward_range(path.forward_edge(batch.images),
                                           path.strategy.cut, base.size());
    std::printf(
        "[device] %.1f Mbps -> forks [", mbps);
    for (std::size_t i = 0; i < composition.forks.size(); ++i)
      std::printf("%s%d", i ? "," : "", composition.forks[i]);
    std::printf("], cut@%zu/%zu, prediction %d\n", composition.strategy.cut,
                base.size(), logits.argmax());
  }
  std::printf("\nDeployment round trip complete: the tree and weights files\n"
              "are all the device needs to run the context-aware model.\n");
  return 0;
}
