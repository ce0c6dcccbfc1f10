// Scenario: a real edge/cloud split over a real socket. The base model is
// partitioned and compressed with faithful weights, the cloud half is served
// by a CloudExecutor's Gateway on localhost, and each inference pushes the
// actual feature tensor through the wire while a trace-driven shaper
// accounts (and briefly sleeps) for the radio time. Verifies on the spot that the distributed
// result matches local execution.
//
//   ./examples/field_offload_demo
#include <cstdio>

#include "compress/registry.h"
#include "latency/device_profile.h"
#include "nn/factory.h"
#include "net/generator.h"
#include "partition/surgery.h"
#include "runtime/field.h"

using namespace cadmc;

int main() {
  // A small real model keeps the demo fast while every byte is genuine.
  nn::Model base = nn::make_tiny_cnn(10, 32, 0xDE40);
  std::printf("Base model: %zu layers, %lld params\n", base.size(),
              static_cast<long long>(base.param_count()));

  // Pick the latency-optimal cut for a 3 Mbps uplink via min-cut surgery.
  latency::TransferModel transfer;
  transfer.rtt_ms = 12.0;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  const double bw = latency::mbps_to_bytes_per_ms(3.0);
  engine::Strategy strategy;
  strategy.cut = partition::surgery_cut_for_chain(base, pe, bw);
  if (strategy.cut >= base.size()) {
    // The demo model is so small that staying on the edge is optimal; force
    // a mid-network split anyway so real bytes cross the socket.
    strategy.cut = base.size() / 2;
    std::printf("(surgery prefers all-edge for this tiny model; forcing a "
                "mid-network split for the demo)\n");
  }
  strategy.plan.assign(base.size(), compress::TechniqueId::kNone);
  // Compress the edge half where applicable (weight-faithful transforms).
  compress::TechniqueRegistry registry;
  for (std::size_t i = 0; i < strategy.cut; ++i) {
    const auto ids = registry.applicable(base.slice(0, strategy.cut), i);
    if (ids.size() > 1) {
      strategy.plan[i] = ids[1];
      break;  // one technique is enough for the demo
    }
  }
  util::Rng rng(0xDE41);
  engine::RealizedStrategy realized =
      engine::realize_strategy(base, strategy, registry, rng);
  std::printf("Partition: layers [0,%zu) on the edge, [%zu,%zu) behind TCP\n",
              realized.cut, realized.cut, realized.model.size());

  // Cloud executor on localhost; transfers paced at 1/50 of real time.
  net::TraceGeneratorParams params;
  params.mean_mbps = 3.0;
  params.volatility = 0.5;
  const net::BandwidthTrace trace = net::generate_trace(params, 30'000.0, 0xDE42);
  runtime::FieldSession session(
      realized, latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), trace,
      transfer.rtt_ms, /*time_scale=*/0.02);

  data::SynthCifar camera(32, 10, 0xDE43);
  int agree = 0;
  const int frames = 5;
  for (int i = 0; i < frames; ++i) {
    const auto batch = camera.make_batch(i, 1);
    const runtime::FieldOutcome outcome =
        session.infer(batch.images, 2'000.0 + i * 4'000.0);
    // Cross-check against fully local execution of the same composed model.
    const auto local = realized.model.forward(batch.images);
    const bool same =
        tensor::Tensor::max_abs_diff(outcome.logits, local) < 1e-4f;
    agree += same;
    std::printf(
        "frame %d: prediction %d | edge %.1f ms + wire %.1f ms + cloud %.1f ms"
        " = %.1f ms | match local: %s\n",
        i, outcome.logits.argmax(), outcome.edge_ms, outcome.transfer_ms,
        outcome.cloud_ms, outcome.total_ms(), same ? "yes" : "NO");
  }
  std::printf("\n%d/%d distributed inferences matched local execution.\n",
              agree, frames);
  return agree == frames ? 0 : 1;
}
