// Google-benchmark micro benchmarks of the computational substrate: conv2d,
// matmul, LSTM step, SVD, trace generation and strategy evaluation — the
// hot paths behind the offline search (0.5-2 h on one GPU in the paper;
// seconds per context on this substrate).
#include <benchmark/benchmark.h>

#include "controller/lstm.h"
#include "engine/strategy.h"
#include "latency/device_profile.h"
#include "net/generator.h"
#include "nn/conv.h"
#include "nn/factory.h"
#include "tensor/ops.h"
#include "tensor/svd.h"

using namespace cadmc;

namespace {

void BM_Conv2dForward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  util::Rng rng(1);
  nn::Conv2d conv(c, c, 3, 1, 1, rng);
  const tensor::Tensor x = tensor::Tensor::randn({1, c, 16, 16}, rng, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * conv.macc({c, 16, 16}));
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(64);

void BM_Conv2dBackward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  util::Rng rng(11);
  nn::Conv2d conv(c, c, 3, 1, 1, rng);
  const tensor::Tensor x = tensor::Tensor::randn({1, c, 16, 16}, rng, 0.3f);
  const tensor::Tensor grad =
      tensor::Tensor::randn({1, c, 16, 16}, rng, 0.1f);
  for (auto _ : state) {
    conv.forward_train(x);
    benchmark::DoNotOptimize(conv.backward(grad));
  }
  state.SetItemsProcessed(state.iterations() * 3 * conv.macc({c, 16, 16}));
}
BENCHMARK(BM_Conv2dBackward)->Arg(16)->Arg(64);

// The two conv fast paths: 1x1 pointwise (pure GEMM, no im2col copy) and
// depthwise (direct per-channel loop).
void BM_Conv2dPointwise(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  util::Rng rng(12);
  nn::Conv2d conv(c, c, 1, 1, 0, rng);
  const tensor::Tensor x = tensor::Tensor::randn({1, c, 16, 16}, rng, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * conv.macc({c, 16, 16}));
}
BENCHMARK(BM_Conv2dPointwise)->Arg(64)->Arg(128);

void BM_Conv2dDepthwise(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  util::Rng rng(13);
  nn::Conv2d conv(c, c, 3, 1, 1, rng, /*groups=*/c);
  const tensor::Tensor x = tensor::Tensor::randn({1, c, 16, 16}, rng, 0.3f);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * conv.macc({c, 16, 16}));
}
BENCHMARK(BM_Conv2dDepthwise)->Arg(64)->Arg(128);

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(256);

void BM_MatmulTn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(14);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul_tn(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulTn)->Arg(64)->Arg(256);

void BM_MatmulNt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(15);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(256);

// Naive reference kernels, for speedup-vs-blocked comparisons in one run.
void BM_ReferenceConv2dForward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  util::Rng rng(16);
  const tensor::Tensor x = tensor::Tensor::randn({1, c, 16, 16}, rng, 0.3f);
  const tensor::Tensor w = tensor::Tensor::randn({c, c, 3, 3}, rng, 0.1f);
  const tensor::Tensor b = tensor::Tensor::randn({c}, rng, 0.1f);
  const tensor::Conv2dSpec spec{1, 1, 1};
  for (auto _ : state)
    benchmark::DoNotOptimize(tensor::reference::conv2d(x, w, b, spec));
  state.SetItemsProcessed(state.iterations() * 9LL * c * c * 16 * 16);
}
BENCHMARK(BM_ReferenceConv2dForward)->Arg(16)->Arg(64);

void BM_ReferenceMatmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(17);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(tensor::reference::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_ReferenceMatmul)->Arg(64)->Arg(256);

void BM_BiLstmEpisode(benchmark::State& state) {
  util::Rng rng(3);
  controller::BiLstm lstm(17, 24, rng);
  const tensor::Tensor xs = tensor::Tensor::randn({29, 17}, rng);
  for (auto _ : state) {
    const tensor::Tensor hs = lstm.forward(xs);
    tensor::Tensor grad = hs;
    benchmark::DoNotOptimize(lstm.backward(grad));
  }
}
BENCHMARK(BM_BiLstmEpisode);

void BM_RandomizedSvd(benchmark::State& state) {
  util::Rng rng(4);
  const tensor::Tensor a = tensor::Tensor::randn({512, 512}, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(tensor::randomized_low_rank(a, 64));
}
BENCHMARK(BM_RandomizedSvd);

void BM_TraceGeneration(benchmark::State& state) {
  net::TraceGeneratorParams params;
  std::uint64_t seed = 5;
  for (auto _ : state)
    benchmark::DoNotOptimize(net::generate_trace(params, 60'000.0, seed++));
}
BENCHMARK(BM_TraceGeneration);

void BM_StrategyEvaluation(benchmark::State& state) {
  static const nn::Model base = nn::make_vgg11();
  latency::TransferModel transfer;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  engine::StrategyEvaluator evaluator(
      base, std::move(pe), engine::AccuracyModel(0.92, base.size(), 6),
      engine::RewardConfig{});
  engine::Strategy s;
  s.cut = base.size();
  s.plan.assign(base.size(), compress::TechniqueId::kNone);
  s.plan[4] = compress::TechniqueId::kC1MobileNet;
  double bw = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(s, bw));
    bw += 1.0;  // defeat the memo so the full path is measured
  }
}
BENCHMARK(BM_StrategyEvaluation);

}  // namespace

BENCHMARK_MAIN();
