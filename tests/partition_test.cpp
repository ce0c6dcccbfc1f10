// Partition tests: Eqn. (3) latency decomposition, exhaustive best-cut,
// Dinic max-flow, and the Dynamic DNN Surgery min-cut baseline — including
// the property that on chain DNNs the min-cut placement equals the
// exhaustive optimum across bandwidths (parameterized sweep), and its
// behaviour on a true branching DAG (the general case of Hu et al.).
#include <gtest/gtest.h>

#include "latency/device_profile.h"
#include "nn/factory.h"
#include "partition/partition.h"
#include "partition/surgery.h"

namespace cadmc::partition {
namespace {

PartitionEvaluator make_evaluator() {
  latency::TransferModel transfer;
  transfer.rtt_ms = 15.0;
  return PartitionEvaluator(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
}

TEST(PartitionEvaluator, AllEdgeHasNoTransferOrCloud) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  const LatencyBreakdown b = eval.evaluate(m, m.size(), 200.0);
  EXPECT_EQ(b.transfer_ms, 0.0);
  EXPECT_EQ(b.cloud_ms, 0.0);
  EXPECT_GT(b.edge_ms, 0.0);
}

TEST(PartitionEvaluator, AllCloudPaysInputTransfer) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  const LatencyBreakdown b = eval.evaluate(m, 0, 200.0);
  EXPECT_EQ(b.edge_ms, 0.0);
  EXPECT_GT(b.transfer_ms, 15.0);  // at least the RTT
  EXPECT_GT(b.cloud_ms, 0.0);
}

TEST(PartitionEvaluator, ComponentsSumToTotal) {
  const nn::Model m = nn::make_alexnet();
  const PartitionEvaluator eval = make_evaluator();
  const LatencyBreakdown b = eval.evaluate(m, 4, 300.0);
  EXPECT_DOUBLE_EQ(b.total_ms(), b.edge_ms + b.transfer_ms + b.cloud_ms);
}

TEST(PartitionEvaluator, EdgeLatencyMonotoneInCut) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  double prev = -1.0;
  for (std::size_t cut = 0; cut <= m.size(); ++cut) {
    const double edge = eval.evaluate(m, cut, 200.0).edge_ms;
    EXPECT_GE(edge, prev);
    prev = edge;
  }
}

TEST(PartitionEvaluator, BadCutThrows) {
  const nn::Model m = nn::make_alexnet();
  const PartitionEvaluator eval = make_evaluator();
  EXPECT_THROW(eval.evaluate(m, m.size() + 1, 100.0), std::out_of_range);
}

TEST(PartitionEvaluator, BestCutBeatsAllOthers) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  const double bw = 400.0;
  const std::size_t best = eval.best_cut(m, bw);
  const double best_ms = eval.evaluate(m, best, bw).total_ms();
  for (std::size_t cut = 0; cut <= m.size(); ++cut)
    EXPECT_GE(eval.evaluate(m, cut, bw).total_ms() + 1e-9, best_ms);
}

TEST(PartitionEvaluator, ExtremeBandwidthsPickExtremeCuts) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  EXPECT_EQ(eval.best_cut(m, 1e9), 0u);        // free network: offload input
  EXPECT_EQ(eval.best_cut(m, 1e-3), m.size()); // dead network: stay on edge
}

TEST(MaxFlow, SingleEdgeGraph) {
  MaxFlow flow(2);
  flow.add_edge(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(flow.solve(0, 1), 3.5);
}

TEST(MaxFlow, BottleneckInSeries) {
  MaxFlow flow(3);
  flow.add_edge(0, 1, 10.0);
  flow.add_edge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(flow.solve(0, 2), 2.0);
}

TEST(MaxFlow, ParallelPathsSum) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 3.0);
  flow.add_edge(1, 3, 3.0);
  flow.add_edge(0, 2, 4.0);
  flow.add_edge(2, 3, 4.0);
  EXPECT_DOUBLE_EQ(flow.solve(0, 3), 7.0);
}

TEST(MaxFlow, ClassicDiamondWithCrossEdge) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 10.0);
  flow.add_edge(0, 2, 10.0);
  flow.add_edge(1, 2, 1.0);
  flow.add_edge(1, 3, 8.0);
  flow.add_edge(2, 3, 10.0);
  EXPECT_DOUBLE_EQ(flow.solve(0, 3), 18.0);
}

TEST(MaxFlow, MinCutSideSeparatesSourceFromSink) {
  MaxFlow flow(3);
  flow.add_edge(0, 1, 5.0);
  flow.add_edge(1, 2, 1.0);
  flow.solve(0, 2);
  const auto side = flow.min_cut_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_TRUE(side[1]);   // the 5.0 edge survives; the 1.0 edge is cut
  EXPECT_FALSE(side[2]);
}

TEST(MaxFlow, RejectsInvalidConstruction) {
  EXPECT_THROW(MaxFlow(1), std::invalid_argument);
  MaxFlow flow(2);
  EXPECT_THROW(flow.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(Surgery, DagFromModelStructure) {
  const nn::Model m = nn::make_alexnet();
  const PartitionEvaluator eval = make_evaluator();
  const DnnDag dag = dag_from_model(m, eval);
  ASSERT_EQ(dag.nodes.size(), m.size() + 1);  // + input pseudo-node
  EXPECT_EQ(dag.nodes[0].name, "input");
  EXPECT_EQ(dag.nodes[0].edge_cost_ms, 0.0);
  EXPECT_EQ(dag.nodes[0].output_bytes, m.boundary_bytes()[0]);
  EXPECT_TRUE(dag.nodes.back().successors.empty());
  for (std::size_t i = 0; i + 1 < dag.nodes.size(); ++i)
    ASSERT_EQ(dag.nodes[i].successors.size(), 1u);
}

TEST(Surgery, MinCutLatencyMatchesPlacementCost) {
  const nn::Model m = nn::make_alexnet();
  const PartitionEvaluator eval = make_evaluator();
  const double bw = 300.0;
  const DnnDag dag = dag_from_model(m, eval);
  const SurgeryResult result = surgery_min_cut(dag, eval.transfer_model(), bw);
  const std::size_t cut = surgery_cut_for_chain(m, eval, bw);
  EXPECT_NEAR(result.total_latency_ms, eval.evaluate(m, cut, bw).total_ms(),
              1e-6);
}

TEST(Surgery, PrefixPlacementOnChains) {
  // On a chain the edge side must be a prefix (no cloud->edge bounce).
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  const DnnDag dag = dag_from_model(m, eval);
  const SurgeryResult result = surgery_min_cut(dag, eval.transfer_model(), 500.0);
  bool seen_cloud = false;
  for (bool on_edge : result.on_edge) {
    if (!on_edge) seen_cloud = true;
    EXPECT_FALSE(seen_cloud && on_edge) << "cloud node feeding an edge node";
  }
}

/// Property: surgery (min-cut) equals the exhaustive optimal cut on chains,
/// across bandwidths spanning poor 2G to fast WiFi.
class SurgeryBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(SurgeryBandwidthSweep, MatchesExhaustiveOptimumOnVgg11) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  const double bw = GetParam();
  const std::size_t surgery = surgery_cut_for_chain(m, eval, bw);
  const std::size_t exhaustive = eval.best_cut(m, bw);
  EXPECT_NEAR(eval.evaluate(m, surgery, bw).total_ms(),
              eval.evaluate(m, exhaustive, bw).total_ms(), 1e-6)
      << "surgery cut " << surgery << " vs exhaustive " << exhaustive;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, SurgeryBandwidthSweep,
                         ::testing::Values(10.0, 40.0, 125.0, 250.0, 500.0,
                                           1000.0, 4000.0, 20000.0));

TEST(Surgery, TX2SweepAlsoOptimal) {
  latency::TransferModel transfer;
  transfer.rtt_ms = 20.0;
  const PartitionEvaluator eval(
      latency::ComputeLatencyModel(latency::tx2_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  const nn::Model m = nn::make_alexnet();
  for (double bw : {50.0, 300.0, 2000.0}) {
    const std::size_t surgery = surgery_cut_for_chain(m, eval, bw);
    const std::size_t exhaustive = eval.best_cut(m, bw);
    EXPECT_NEAR(eval.evaluate(m, surgery, bw).total_ms(),
                eval.evaluate(m, exhaustive, bw).total_ms(), 1e-6);
  }
}

TEST(Surgery, OffloadsNoLaterAsBandwidthGrows) {
  const nn::Model m = nn::make_vgg11();
  const PartitionEvaluator eval = make_evaluator();
  std::size_t prev = m.size();
  for (double bw : {20.0, 100.0, 500.0, 5000.0, 100000.0}) {
    const std::size_t cut = surgery_cut_for_chain(m, eval, bw);
    EXPECT_LE(cut, prev) << "bw " << bw;
    prev = cut;
  }
}

/// input -> a -> {b, c} -> d: a hand-built diamond, the smallest DAG whose
/// min cut is not a chain prefix question.
DnnDag diamond_dag() {
  DnnDag dag;
  dag.nodes = {{"input", 0.0, 0.0, 12288, {1}},
               {"a", 8.0, 0.4, 16384, {2, 3}},
               {"b", 6.0, 0.3, 8192, {4}},
               {"c", 3.0, 0.2, 4096, {4}},
               {"d", 2.0, 0.1, 1024, {}}};
  return dag;
}

TEST(Surgery, DiamondMinCutNeverWorseThanItsOwnExtremes) {
  // The min cut must never exceed the trivial placements (all-edge; ship
  // the input, then all-cloud) priced on the same DAG, and must never let a
  // cloud node feed an edge node.
  const DnnDag dag = diamond_dag();
  latency::TransferModel transfer;
  transfer.rtt_ms = 12.0;
  for (double bw : {25.0, 125.0, 600.0, 4000.0}) {
    const SurgeryResult result = surgery_min_cut(dag, transfer, bw);
    double all_edge = 0.0, all_cloud = 0.0;
    for (const auto& node : dag.nodes) {
      all_edge += node.edge_cost_ms;
      all_cloud += node.cloud_cost_ms;
    }
    all_cloud += transfer.latency_ms(dag.nodes[0].output_bytes, bw);
    EXPECT_LE(result.total_latency_ms, std::min(all_edge, all_cloud) + 1e-6)
        << "bw " << bw;
    for (std::size_t i = 0; i < dag.nodes.size(); ++i)
      for (int succ : dag.nodes[i].successors)
        EXPECT_FALSE(!result.on_edge[i] &&
                     result.on_edge[static_cast<std::size_t>(succ)])
            << "bw " << bw << ": " << dag.nodes[i].name;
  }
}

TEST(Surgery, DiamondExtremeBandwidthsPlaceEverythingOneSide) {
  const DnnDag dag = diamond_dag();
  // Near-zero RTT so transfer cost vanishes at infinite bandwidth.
  latency::TransferModel transfer;
  transfer.rtt_ms = 1e-6;
  // Dead network: everything on the edge.
  const SurgeryResult on_edge = surgery_min_cut(dag, transfer, 1e-4);
  for (std::size_t i = 0; i < on_edge.on_edge.size(); ++i)
    EXPECT_TRUE(on_edge.on_edge[i]) << dag.nodes[i].name;
  // Infinite network, no RTT: only the input pseudo-node stays.
  const SurgeryResult offload = surgery_min_cut(dag, transfer, 1e12);
  for (std::size_t i = 1; i < offload.on_edge.size(); ++i)
    EXPECT_FALSE(offload.on_edge[i]) << dag.nodes[i].name;
}

}  // namespace
}  // namespace cadmc::partition
