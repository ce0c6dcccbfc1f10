// Extension bench (beyond the paper; see DESIGN.md): (1) lets the RL search
// use Q1 8-bit quantization on top of the Table II catalog and measures the
// extra reward it buys, and (2) prices every policy's ENERGY per inference
// with the first-order mobile energy model — the battery angle the paper's
// introduction motivates but never measures.
#include <cstdio>

#include "bench/common.h"
#include "latency/energy_model.h"
#include "util/table.h"

using namespace cadmc;
using namespace cadmc::bench;

namespace {
double strategy_energy_mj(const ContextArtifacts& art,
                          const engine::Strategy& s, double bandwidth) {
  const auto eval = art.evaluator->evaluate(s, bandwidth);
  latency::EnergyModel em(latency::phone_energy_profile());
  // Realize the compressed edge structurally to count its actual MACCs.
  compress::TechniqueRegistry structural(/*faithful_weights=*/false, true);
  util::Rng rng(0xE6E);
  const engine::RealizedStrategy realized =
      engine::realize_strategy(*art.base, s, structural, rng);
  const std::int64_t edge_macc =
      realized.model.slice(0, realized.cut).total_macc();
  return em.inference_mj(edge_macc, eval.breakdown.transfer_ms,
                         eval.breakdown.transfer_ms + eval.breakdown.cloud_ms);
}
}  // namespace

int main() {
  std::printf("=== Extensions: Q1 quantization in the search + energy accounting ===\n");
  std::printf("Context: VGG11, phone, '4G (weak) indoor'\n\n");
  BenchConfig config;
  net::EvalContext context{"VGG11", "phone",
                           net::scene_by_name("4G (weak) indoor")};
  const ContextArtifacts art = train_context(context, config);

  // Re-run the branch search with the extended catalog on the same budget.
  engine::StrategyEvaluator extended(
      *art.base, art.evaluator->partition_eval(),
      engine::AccuracyModel(0.9201, art.base->size(), 0xE17),
      0xE18, /*include_extensions=*/true);
  engine::BranchSearchConfig bc;
  bc.episodes = config.branch_episodes;
  bc.seed = 0xE19;
  engine::BranchSearch search(extended, bc);
  const double median_bw = art.trace.quantile(0.5);
  const auto extended_branch = search.run(median_bw);

  int q1_sites = 0;
  for (auto id : extended_branch.best.plan)
    q1_sites += id == compress::TechniqueId::kQ1Quantize;

  util::AsciiTable table({"Catalog", "Branch reward", "Latency (ms)",
                          "Accuracy (%)", "Q1 sites"});
  const auto paper_eval = art.evaluator->evaluate(art.branch.best, median_bw);
  table.add_row({"Table II (paper)", fmt(paper_eval.reward),
                 fmt(paper_eval.latency_ms), fmt(paper_eval.accuracy * 100),
                 "0"});
  table.add_row({"Table II + Q1", fmt(extended_branch.best_eval.reward),
                 fmt(extended_branch.best_eval.latency_ms),
                 fmt(extended_branch.best_eval.accuracy * 100),
                 std::to_string(q1_sites)});
  std::printf("%s\n", table.to_string().c_str());

  // Energy per inference of the three paper policies at the median state.
  util::AsciiTable energy({"Policy", "Latency (ms)", "Energy (mJ)"});
  const auto add_energy = [&](const char* name, const engine::Strategy& s) {
    const auto eval = art.evaluator->evaluate(s, median_bw);
    energy.add_row({name, fmt(eval.latency_ms),
                    fmt(strategy_energy_mj(art, s, median_bw))});
  };
  add_energy("Surgery", art.surgery_strategy());
  add_energy("Branch", art.branch.best);
  const auto tree_path = art.tree.tree.strategy_for_path(
      std::vector<int>(art.tree.tree.num_blocks(), 0));
  add_energy("Tree (poor fork)", tree_path.strategy);
  std::printf("%s\n", energy.to_string().c_str());
  std::printf(
      "Quantization adds a near-free latency lever (CPU int8 kernels),\n"
      "so the extended catalog should match or beat the Table II branch.\n"
      "Energy tracks latency closely on the phone because compute dominates;\n"
      "offloading trades compute nJ/MACC for radio transmit power.\n");
  return 0;
}
