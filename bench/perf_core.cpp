#include "bench/perf_core.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "bench/common.h"
#include "data/synth_cifar.h"
#include "engine/accuracy_model.h"
#include "latency/device_profile.h"
#include "nn/conv.h"
#include "nn/factory.h"
#include "nn/optimizer.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "runtime/decision_engine.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"
#include "tensor/kernel_mode.h"
#include "tensor/ops.h"
#include "tree/tree_search.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace cadmc::bench {

PerfStats measure(const std::string& name, int warmup, int repetitions,
                  const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples_us;
  samples_us.reserve(static_cast<std::size_t>(std::max(repetitions, 0)));
  double total_us = 0.0;
  for (int i = 0; i < repetitions; ++i) {
    const auto t0 = clock::now();
    fn();
    const double us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count();
    samples_us.push_back(us);
    total_us += us;
  }
  PerfStats stats;
  stats.name = name;
  stats.repetitions = repetitions;
  stats.warmup = warmup;
  if (!samples_us.empty()) {
    stats.p50 = util::quantile(samples_us, 0.5);
    stats.p90 = util::quantile(samples_us, 0.9);
    stats.p99 = util::quantile(samples_us, 0.99);
    stats.mean = total_us / static_cast<double>(samples_us.size());
    stats.min = *std::min_element(samples_us.begin(), samples_us.end());
    stats.max = *std::max_element(samples_us.begin(), samples_us.end());
    if (total_us > 0.0)
      stats.throughput_per_s = 1e6 * static_cast<double>(repetitions) / total_us;
  }
  return stats;
}

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string perf_json(const PerfStats& stats) {
  std::string line = "{\"type\":\"bench\",\"name\":\"" +
                     obs::json_escape(stats.name) + "\",\"unit\":\"" +
                     obs::json_escape(stats.unit) + "\"";
  line += ",\"repetitions\":" + std::to_string(stats.repetitions);
  line += ",\"warmup\":" + std::to_string(stats.warmup);
  line += ",\"p50\":" + num(stats.p50);
  line += ",\"p90\":" + num(stats.p90);
  line += ",\"p99\":" + num(stats.p99);
  line += ",\"mean\":" + num(stats.mean);
  line += ",\"min\":" + num(stats.min);
  line += ",\"max\":" + num(stats.max);
  line += ",\"throughput_per_s\":" + num(stats.throughput_per_s);
  if (stats.speedup_vs_deterministic > 0.0)
    line += ",\"speedup_vs_deterministic\":" +
            num(stats.speedup_vs_deterministic);
  line += "}";
  return line;
}

bool write_perf_json(const std::string& dir, const PerfStats& stats) {
  const std::string path =
      (dir.empty() ? std::string(".") : dir) + "/BENCH_" + stats.name + ".json";
  std::ofstream out(path);
  if (!out) return false;
  out << perf_json(stats) << "\n";
  return static_cast<bool>(out);
}

bool load_perf_json(const std::string& path, PerfStats& stats) {
  std::string text;
  if (!util::read_file(path, text)) return false;
  const auto events = obs::parse_jsonl(text);
  for (const auto& event : events) {
    const auto type = event.find("type");
    if (type == event.end() || type->second != "bench") continue;
    const auto name = event.find("name");
    if (name == event.end()) continue;
    stats.name = name->second;
    const auto unit = event.find("unit");
    stats.unit = unit != event.end() ? unit->second : "us";
    stats.repetitions =
        static_cast<int>(obs::event_double(event, "repetitions"));
    stats.warmup = static_cast<int>(obs::event_double(event, "warmup"));
    stats.p50 = obs::event_double(event, "p50");
    stats.p90 = obs::event_double(event, "p90");
    stats.p99 = obs::event_double(event, "p99");
    stats.mean = obs::event_double(event, "mean");
    stats.min = obs::event_double(event, "min");
    stats.max = obs::event_double(event, "max");
    stats.throughput_per_s = obs::event_double(event, "throughput_per_s");
    stats.speedup_vs_deterministic =
        obs::event_double(event, "speedup_vs_deterministic");
    return true;
  }
  return false;
}

std::vector<PerfComparison> compare_perf(const std::vector<PerfStats>& current,
                                         const std::string& baseline_dir,
                                         double threshold) {
  std::vector<PerfComparison> results;
  for (const PerfStats& stats : current) {
    PerfComparison cmp;
    cmp.name = stats.name;
    cmp.current_p50 = stats.p50;
    PerfStats baseline;
    if (!load_perf_json(baseline_dir + "/BENCH_" + stats.name + ".json",
                        baseline)) {
      cmp.missing_baseline = true;
      results.push_back(cmp);
      continue;
    }
    cmp.baseline_p50 = baseline.p50;
    cmp.ratio = baseline.p50 > 0.0 ? stats.p50 / baseline.p50 : 0.0;
    cmp.regressed = cmp.ratio > 1.0 + threshold;
    results.push_back(cmp);
  }
  return results;
}

// ---------------------------------------------------------------------------
// The benchmark suite.

namespace {

using engine::Strategy;

/// Expensive shared fixtures, built once and only when a benchmark that
/// needs them actually runs (so `--filter transport` stays fast).
struct SuiteContext {
  std::unique_ptr<nn::Model> base;
  std::vector<std::size_t> boundaries;
  std::unique_ptr<engine::StrategyEvaluator> evaluator;
  std::optional<net::BandwidthTrace> trace;

  void ensure_evaluator() {
    if (evaluator) return;
    base = std::make_unique<nn::Model>(nn::make_alexnet());
    boundaries = nn::block_boundaries(*base, 3);
    latency::TransferModel transfer;
    transfer.rtt_ms = 15.0;
    partition::PartitionEvaluator pe(
        latency::ComputeLatencyModel(latency::phone_profile()),
        latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
    evaluator = std::make_unique<engine::StrategyEvaluator>(
        *base, pe, engine::AccuracyModel(0.8404, base->size(), 41));
    net::TraceGeneratorParams params;
    params.mean_mbps = 8.0;
    params.volatility = 0.3;
    trace = net::generate_trace(params, 20'000.0, 42);
  }
};

/// Rescales a per-batch measurement to per-item (batching keeps clock noise
/// out of nanosecond costs and smooths per-call variance). `unit_factor`
/// converts the us samples to the target unit (1000 for ns, 1 to stay in us).
PerfStats per_item(PerfStats stats, int batch, const std::string& unit,
                   double unit_factor = 1000.0) {
  const double scale = unit_factor / batch;
  stats.p50 *= scale;
  stats.p90 *= scale;
  stats.p99 *= scale;
  stats.mean *= scale;
  stats.min *= scale;
  stats.max *= scale;
  stats.throughput_per_s *= batch;
  stats.unit = unit;
  return stats;
}

PerfStats bench_decision_infer(const PerfSuiteConfig& config) {
  // One online frame on VGG11 at 3x32x32: the Alg. 2 tree walk, then the
  // pre-realized path's forward. The search budget is cut so that set-up
  // takes seconds; it does not enter the timing.
  runtime::EngineConfig ec;
  ec.scene = net::scene_by_name("4G indoor static");
  ec.trace_duration_ms = 20'000.0;
  ec.tree_config.episodes = std::max(2, config.episodes / 4);
  ec.tree_config.branch_config.episodes = std::max(4, config.episodes);
  runtime::DecisionEngine engine(nn::make_vgg11(10), std::move(ec));
  engine.train_offline();
  util::Rng rng(0xD3C);
  const auto input = tensor::Tensor::randn({1, 3, 32, 32}, rng, 0.3f);
  double t_ms = 1'000.0;
  return measure("decision_infer", config.warmup, config.repetitions, [&] {
    engine.infer(input, t_ms);
    t_ms += 100.0;
    if (t_ms > 15'000.0) t_ms = 1'000.0;
  });
}

PerfStats bench_branch_search_step(const PerfSuiteConfig& config,
                                   SuiteContext& ctx) {
  ctx.ensure_evaluator();
  engine::BranchSearchConfig bc;
  bc.episodes = config.episodes;
  engine::BranchSearch search(*ctx.evaluator, bc);
  const double bw = latency::mbps_to_bytes_per_ms(8.0);
  util::Rng rng(0xB5);
  // A single rollout's cost swings with the sampled cut (the compression
  // controller only walks the edge half), so time batches and report the
  // per-rollout average — a regression guard needs a stable p50.
  constexpr int kBatch = 16;
  PerfStats stats = measure("branch_search_step", config.warmup,
                            config.repetitions, [&] {
                              for (int i = 0; i < kBatch; ++i)
                                search.sample_strategy(bw, rng);
                            });
  return per_item(stats, kBatch, "us", 1.0);
}

PerfStats bench_serve_throughput(const PerfSuiteConfig& config) {
  // Concurrent serving: one repetition = 8 sessions each pushing one call
  // through a shared 4-worker gateway. The p50 tracks the multiplexed
  // round-trip under contention — reactor, admission queue and worker
  // handoff included — which is the path the serve suite guards.
  constexpr int kSessions = 8;
  runtime::GatewayConfig gc;
  gc.worker_threads = 4;
  runtime::Gateway gateway(
      [](const runtime::GatewayRequest& request) { return request.payload; },
      gc);
  const std::uint16_t port = gateway.start();
  std::vector<std::unique_ptr<runtime::TcpClient>> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.push_back(std::make_unique<runtime::TcpClient>());
    runtime::TcpClientConfig cc;
    cc.timeout_ms = 5000.0;
    cc.session_id = static_cast<std::uint64_t>(s) + 1;
    clients.back()->connect(port, cc);
  }
  runtime::Blob request(1024);
  for (std::size_t i = 0; i < request.size(); ++i)
    request[i] = static_cast<std::uint8_t>(i * 31);
  PerfStats stats =
      measure("serve_throughput", config.warmup, config.repetitions, [&] {
        std::vector<std::thread> threads;
        for (int s = 0; s < kSessions; ++s)
          threads.emplace_back([&, s] { clients[static_cast<std::size_t>(s)]->call(request); });
        for (auto& t : threads) t.join();
      });
  for (auto& client : clients) client->close();
  gateway.stop();
  return stats;
}

PerfStats bench_transport_roundtrip(const PerfSuiteConfig& config) {
  runtime::Gateway server(
      [](const runtime::GatewayRequest& r) { return r.payload; });
  const std::uint16_t port = server.start();
  runtime::TcpClient client;
  client.connect(port);
  runtime::Blob request(1024);
  for (std::size_t i = 0; i < request.size(); ++i)
    request[i] = static_cast<std::uint8_t>(i * 31);
  PerfStats stats =
      measure("transport_roundtrip", config.warmup, config.repetitions,
              [&] { client.call(request); });
  client.close();
  server.stop();
  return stats;
}

PerfStats bench_emulated_frame(const PerfSuiteConfig& config,
                               SuiteContext& ctx) {
  ctx.ensure_evaluator();
  runtime::RunnerConfig rc;
  rc.inferences = 1;
  runtime::InferenceRunner runner(*ctx.evaluator, *ctx.trace, ctx.boundaries,
                                  rc);
  return measure("emulated_frame", config.warmup, config.repetitions,
                 [&] { runner.run_surgery(); });
}

PerfStats bench_parallel_search(const PerfSuiteConfig& config) {
  // A full-depth K=4 tree with a distinct random compression plan in every
  // node: 4^3 = 64 leaf trajectories to price, each with its own cache keys.
  // This is the estimate_backward fan-out that util::parallel_for spreads
  // across the pool — run with CADMC_THREADS=1 (or --threads 1) to reproduce
  // the committed single-thread baseline. MobileNet rather than the suite's
  // AlexNet: its many small layers keep one leaf realization cheap, so a
  // repetition is dominated by the fan-out, not by one giant FC allocation.
  const nn::Model base = nn::make_mobilenet();
  const std::vector<std::size_t> boundaries = nn::block_boundaries(base, 3);
  latency::TransferModel transfer;
  transfer.rtt_ms = 15.0;
  partition::PartitionEvaluator pe(
      latency::ComputeLatencyModel(latency::phone_profile()),
      latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  const engine::StrategyEvaluator seed_evaluator(
      base, pe, engine::AccuracyModel(0.8404, base.size(), 41));
  const std::vector<double> forks = {
      latency::mbps_to_bytes_per_ms(1.0), latency::mbps_to_bytes_per_ms(4.0),
      latency::mbps_to_bytes_per_ms(10.0), latency::mbps_to_bytes_per_ms(25.0)};
  tree::ModelTree tree(base, boundaries, forks);
  util::Rng rng(0x9A12);
  const std::function<void(tree::TreeNode&)> scramble =
      [&](tree::TreeNode& node) {
        const std::size_t begin = tree.block_begin(node.depth);
        const std::size_t len = tree.block_len(node.depth);
        node.cut_local = len;  // no partition: keep every path full depth
        const auto masks = seed_evaluator.technique_masks(begin, begin + len);
        node.block_plan.resize(len);
        for (std::size_t i = 0; i < len; ++i)
          node.block_plan[i] = static_cast<compress::TechniqueId>(
              masks[i][rng.uniform_index(masks[i].size())]);
        for (tree::TreeNode& child : node.children) scramble(child);
      };
  for (tree::TreeNode& child : tree.root().children) scramble(child);

  tree::TreeSearchConfig tc;
  tc.hidden_dim = 4;  // controllers are not exercised by estimate_backward
  return measure("parallel_search", config.warmup, config.repetitions, [&] {
    // A fresh evaluator every repetition: the benchmark must time cold-cache
    // pricing of all 64 leaf trajectories, not sharded-cache hits.
    engine::StrategyEvaluator evaluator(
        base, pe, engine::AccuracyModel(0.8404, base.size(), 41));
    tree::TreeSearch search(evaluator, boundaries, forks, tc);
    search.estimate_backward(tree);
  });
}

// --- Compute-kernel benches (the math engine under search and serving). ---
// Shapes are CIFAR-scale on purpose: they match what the distillation loop
// and the edge-slice executors actually run. Committed baselines under
// bench/baselines/ were captured with CADMC_THREADS=1 (the deterministic
// GEMM, conv_forward, distill_train and decision_infer ones, and their fast
// twins, as the median of five runs), so --compare against them flags a
// kernel slowing down. conv_forward_b1 runs in deterministic mode only: its
// single-thread baseline guards the serial cost of the online frame's
// batch-1 conv, row blocking included; it cannot see the multi-thread
// fan-out, whose run-to-run spread on a shared host exceeds the threshold.
//
// Each kernel bench runs twice: once as `<name>` pinned to the deterministic
// kernels (whose GEMM runs the AVX2 double-lane tile where the CPU has it)
// and once as `<name>_fast` pinned to the AVX2/FMA fp32 kernels (skipped
// when the hardware can't run them). The post-pass in
// run_perf_suite stamps the fast record with its measured
// speedup_vs_deterministic ratio.

/// Pins the kernel mode for one benchmark body, restoring the previously
/// requested mode (CLI/env selection) on exit.
struct KernelModeScope {
  explicit KernelModeScope(tensor::KernelMode mode)
      : saved_(tensor::requested_kernel_mode()) {
    tensor::set_kernel_mode(mode);
  }
  ~KernelModeScope() { tensor::set_kernel_mode(saved_); }
  tensor::KernelMode saved_;
};

PerfStats bench_gemm_nn(const PerfSuiteConfig& config, const char* name,
                        tensor::KernelMode mode) {
  const KernelModeScope scope(mode);
  util::Rng rng(0x6E44);
  const auto a = tensor::Tensor::randn({160, 160}, rng);
  const auto b = tensor::Tensor::randn({160, 160}, rng);
  return measure(name, config.warmup, config.repetitions,
                 [&] { tensor::matmul(a, b); });
}

PerfStats bench_conv_forward(const PerfSuiteConfig& config, const char* name,
                             tensor::KernelMode mode) {
  const KernelModeScope scope(mode);
  util::Rng rng(0xC0F4);
  nn::Conv2d conv(32, 64, 3, 1, 1, rng);
  const auto x = tensor::Tensor::randn({4, 32, 16, 16}, rng, 0.3f);
  return measure(name, config.warmup, config.repetitions,
                 [&] { conv.forward(x); });
}

PerfStats bench_conv_forward_b1(const PerfSuiteConfig& config) {
  // VGG11's conv4 at batch 1, the shape of the online frame's suffix: one
  // 64-column block, so with more than one thread its fan-out comes from
  // the output-channel row blocks.
  const KernelModeScope scope(tensor::KernelMode::kDeterministic);
  util::Rng rng(0xC0B1);
  nn::Conv2d conv(256, 256, 3, 1, 1, rng);
  const auto x = tensor::Tensor::randn({1, 256, 8, 8}, rng, 0.3f);
  return measure("conv_forward_b1", config.warmup, config.repetitions,
                 [&] { conv.forward(x); });
}

PerfStats bench_conv_backward(const PerfSuiteConfig& config, const char* name,
                              tensor::KernelMode mode) {
  const KernelModeScope scope(mode);
  util::Rng rng(0xC0B4);
  nn::Conv2d conv(32, 64, 3, 1, 1, rng);
  const auto x = tensor::Tensor::randn({4, 32, 16, 16}, rng, 0.3f);
  const auto grad = tensor::Tensor::randn({4, 64, 16, 16}, rng, 0.1f);
  conv.forward_train(x);  // cache the input once; backward re-reads it
  return measure(name, config.warmup, config.repetitions,
                 [&] { conv.backward(grad); });
}

PerfStats bench_pool_forward(const PerfSuiteConfig& config, const char* name,
                             tensor::KernelMode mode) {
  // Inference-shaped pooling (no argmax side-output), the variant the edge
  // executors run per frame; fast mode routes it to the vector row kernels.
  const KernelModeScope scope(mode);
  util::Rng rng(0x9001);
  const auto x = tensor::Tensor::randn({4, 32, 16, 16}, rng, 0.3f);
  return measure(name, config.warmup, config.repetitions, [&] {
    tensor::maxpool2d(x, 2, 2, /*with_argmax=*/false);
    tensor::avgpool2d(x, 2, 2);
  });
}

PerfStats bench_sgd_step(const PerfSuiteConfig& config, const char* name,
                         tensor::KernelMode mode) {
  // The fused momentum+weight-decay parameter sweep, sized like the tiny-CNN
  // parameter set the distillation loop updates every step.
  const KernelModeScope scope(mode);
  util::Rng rng(0x56D5);
  std::vector<tensor::Tensor> params, grads;
  for (const auto& shape :
       {tensor::Shape{64, 32, 3, 3}, tensor::Shape{32, 16, 3, 3},
        tensor::Shape{128, 256}, tensor::Shape{128}}) {
    params.push_back(tensor::Tensor::randn(shape, rng, 0.1f));
    grads.push_back(tensor::Tensor::randn(shape, rng, 0.01f));
  }
  std::vector<tensor::Tensor*> param_ptrs, grad_ptrs;
  for (auto& p : params) param_ptrs.push_back(&p);
  for (auto& g : grads) grad_ptrs.push_back(&g);
  nn::Sgd sgd(0.05, /*momentum=*/0.9, /*weight_decay=*/1e-4);
  return measure(name, config.warmup, config.repetitions,
                 [&] { sgd.step(param_ptrs, grad_ptrs); });
}

PerfStats bench_distill_train(const PerfSuiteConfig& config, const char* name,
                              tensor::KernelMode mode) {
  // The RealAccuracyEvaluator::train_and_evaluate hot loop (Alg. 3 /
  // Sec. VII): every parallel-search candidate pays this path, so its p50 is
  // the wall-clock floor of performance-driven search.
  const KernelModeScope scope(mode);
  const data::SynthCifar dataset(12, 4, 0xD157, /*noise=*/0.15);
  const nn::Model base = nn::make_tiny_cnn(4, 12, 8);
  const engine::RealAccuracyEvaluator evaluator(base, dataset, 128, 64, 16,
                                                /*train_steps=*/8, /*lr=*/0.05);
  std::uint64_t seed = 100;
  return measure(name, config.warmup, config.repetitions, [&] {
    nn::Model student = nn::make_tiny_cnn(4, 12, seed++);
    evaluator.train_and_evaluate(student);
  });
}

constexpr int kSpanBatch = 512;

PerfStats bench_span_overhead_disabled(const PerfSuiteConfig& config) {
  const bool was_enabled = obs::enabled();
  const bool was_flight = obs::flight_recording();
  obs::set_enabled(false);
  obs::set_flight_recording(false);
  PerfStats stats = measure(
      "span_overhead_disabled", config.warmup, config.repetitions, [] {
        for (int i = 0; i < kSpanBatch; ++i) CADMC_SPAN("bench_span");
      });
  obs::set_enabled(was_enabled);
  obs::set_flight_recording(was_flight);
  return per_item(stats, kSpanBatch, "ns");
}

PerfStats bench_span_overhead_enabled(const PerfSuiteConfig& config) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  PerfStats stats = measure(
      "span_overhead_enabled", config.warmup, config.repetitions, [&] {
        for (int i = 0; i < kSpanBatch; ++i) obs::ScopedSpan span("bench_span");
        registry.reset();  // each repetition starts from an empty registry
      });
  obs::set_enabled(was_enabled);
  return per_item(stats, kSpanBatch, "ns");
}

PerfStats bench_critpath_profile(const PerfSuiteConfig& config) {
  // The profiler runs after every emulator/field run (`cadmc profile`), so
  // its own cost has to stay trivial next to the workload it measures. The
  // synthetic input mirrors a run_tree trace: 64 frames, each a serial chain
  // of 16 stages with one overlapping (parallel) sibling per stage.
  std::vector<obs::SpanRecord> spans;
  std::uint64_t next_id = 1;
  for (int t = 0; t < 64; ++t) {
    const std::uint64_t trace = static_cast<std::uint64_t>(t) + 1;
    obs::SpanRecord frame;
    frame.id = next_id++;
    frame.trace_id = trace;
    frame.name = "frame";
    frame.wall_ms = 64.0;
    const std::uint64_t frame_id = frame.id;
    spans.push_back(std::move(frame));
    double cursor = 0.0;
    for (int s = 0; s < 16; ++s) {
      obs::SpanRecord stage;
      stage.id = next_id++;
      stage.parent_id = frame_id;
      stage.trace_id = trace;
      stage.name = s % 2 == 0 ? "edge_compute" : "transfer";
      stage.start_ms = cursor;
      stage.wall_ms = 2.0;
      obs::SpanRecord overlap = stage;  // concurrent sibling: never chains
      overlap.id = next_id++;
      overlap.name = "measure_bandwidth";
      spans.push_back(std::move(stage));
      spans.push_back(std::move(overlap));
      cursor += 4.0;
    }
  }
  return measure("critpath_profile", config.warmup, config.repetitions,
                 [&] { obs::profile_spans(spans); });
}

}  // namespace

int run_perf_suite(const PerfSuiteConfig& config) {
  // Substring match, or exact match with a trailing '$' — needed to run
  // `distill_train` without also selecting `distill_train_fast` (profiling
  // one kernel mode in isolation).
  const auto selected = [&](const char* name) {
    if (config.filter.empty()) return true;
    if (config.filter.back() == '$')
      return config.filter.compare(0, config.filter.size() - 1, name) == 0 &&
             config.filter.size() == std::string(name).size() + 1;
    return std::string(name).find(config.filter) != std::string::npos;
  };

  // Create the output directory before minutes of measurement, not after.
  std::error_code ec;
  if (!config.out_dir.empty())
    std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", config.out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  SuiteContext ctx;
  std::vector<PerfStats> results;
  if (selected("decision_infer")) results.push_back(bench_decision_infer(config));
  if (selected("branch_search_step"))
    results.push_back(bench_branch_search_step(config, ctx));
  if (selected("transport_roundtrip"))
    results.push_back(bench_transport_roundtrip(config));
  if (selected("serve_throughput"))
    results.push_back(bench_serve_throughput(config));
  if (selected("emulated_frame"))
    results.push_back(bench_emulated_frame(config, ctx));
  if (selected("parallel_search"))
    results.push_back(bench_parallel_search(config));
  using tensor::KernelMode;
  const bool fast_ok = tensor::vector_kernels_available();
  if (selected("gemm_nn"))
    results.push_back(bench_gemm_nn(config, "gemm_nn",
                                    KernelMode::kDeterministic));
  if (selected("gemm_nn_fast") && fast_ok)
    results.push_back(bench_gemm_nn(config, "gemm_nn_fast", KernelMode::kFast));
  if (selected("conv_forward"))
    results.push_back(bench_conv_forward(config, "conv_forward",
                                         KernelMode::kDeterministic));
  if (selected("conv_forward_fast") && fast_ok)
    results.push_back(bench_conv_forward(config, "conv_forward_fast",
                                         KernelMode::kFast));
  if (selected("conv_forward_b1"))
    results.push_back(bench_conv_forward_b1(config));
  if (selected("conv_backward"))
    results.push_back(bench_conv_backward(config, "conv_backward",
                                          KernelMode::kDeterministic));
  if (selected("conv_backward_fast") && fast_ok)
    results.push_back(bench_conv_backward(config, "conv_backward_fast",
                                          KernelMode::kFast));
  if (selected("pool_forward"))
    results.push_back(bench_pool_forward(config, "pool_forward",
                                         KernelMode::kDeterministic));
  if (selected("pool_forward_fast") && fast_ok)
    results.push_back(bench_pool_forward(config, "pool_forward_fast",
                                         KernelMode::kFast));
  if (selected("sgd_step"))
    results.push_back(bench_sgd_step(config, "sgd_step",
                                     KernelMode::kDeterministic));
  if (selected("sgd_step_fast") && fast_ok)
    results.push_back(bench_sgd_step(config, "sgd_step_fast",
                                     KernelMode::kFast));
  if (selected("distill_train"))
    results.push_back(bench_distill_train(config, "distill_train",
                                          KernelMode::kDeterministic));
  if (selected("distill_train_fast") && fast_ok)
    results.push_back(bench_distill_train(config, "distill_train_fast",
                                          KernelMode::kFast));
  if (!fast_ok && !config.quiet &&
      (selected("gemm_nn_fast") || selected("conv_forward_fast") ||
       selected("conv_backward_fast") || selected("pool_forward_fast") ||
       selected("sgd_step_fast") || selected("distill_train_fast")))
    std::fprintf(stderr,
                 "skipping *_fast kernel benches: AVX2/FMA unavailable (%s)\n",
                 tensor::vector_kernels_compiled() ? "cpu" : "build");
  if (selected("span_overhead_disabled"))
    results.push_back(bench_span_overhead_disabled(config));
  if (selected("span_overhead_enabled"))
    results.push_back(bench_span_overhead_enabled(config));
  if (selected("critpath_profile"))
    results.push_back(bench_critpath_profile(config));

  if (results.empty()) {
    std::fprintf(stderr, "no benchmark matches filter '%s'\n",
                 config.filter.c_str());
    return 2;
  }

  // Stamp every `<name>_fast` record with its same-run advantage over the
  // deterministic `<name>` bench, so the committed fast baselines carry the
  // measured ratio, not just absolute times.
  for (PerfStats& fast : results) {
    const std::string suffix = "_fast";
    if (fast.name.size() <= suffix.size() ||
        fast.name.compare(fast.name.size() - suffix.size(), suffix.size(),
                          suffix) != 0)
      continue;
    const std::string base = fast.name.substr(0, fast.name.size() - suffix.size());
    for (const PerfStats& det : results)
      if (det.name == base && fast.p50 > 0.0)
        fast.speedup_vs_deterministic = det.p50 / fast.p50;
  }

  for (const PerfStats& stats : results) {
    if (!write_perf_json(config.out_dir, stats)) {
      std::fprintf(stderr, "cannot write %s/BENCH_%s.json\n",
                   config.out_dir.c_str(), stats.name.c_str());
      return 2;
    }
  }

  if (!config.quiet) {
    util::AsciiTable table(
        {"Benchmark", "Unit", "p50", "p90", "p99", "Mean", "Ops/s"});
    for (const PerfStats& s : results)
      table.add_row({s.name, s.unit, util::format_double(s.p50, 2),
                     util::format_double(s.p90, 2),
                     util::format_double(s.p99, 2),
                     util::format_double(s.mean, 2),
                     util::format_double(s.throughput_per_s, 1)});
    std::printf("%s", table.to_string().c_str());
    std::printf("results written to %s/BENCH_<name>.json\n",
                config.out_dir.c_str());
  }

  if (config.compare_dir.empty()) return 0;

  const auto comparisons =
      compare_perf(results, config.compare_dir, config.threshold);
  bool any_regressed = false;
  util::AsciiTable table({"Benchmark", "Baseline p50", "Current p50", "Ratio",
                          "Verdict"});
  for (const PerfComparison& cmp : comparisons) {
    any_regressed = any_regressed || cmp.regressed;
    table.add_row(
        {cmp.name,
         cmp.missing_baseline ? "-" : util::format_double(cmp.baseline_p50, 2),
         util::format_double(cmp.current_p50, 2),
         cmp.missing_baseline ? "-" : util::format_double(cmp.ratio, 3),
         cmp.missing_baseline ? "no baseline"
                              : (cmp.regressed ? "REGRESSED" : "ok")});
  }
  if (!config.quiet) {
    std::printf("\nbaseline: %s (threshold +%.0f%% on p50)\n%s",
                config.compare_dir.c_str(), config.threshold * 100.0,
                table.to_string().c_str());
  }
  return any_regressed ? 1 : 0;
}

}  // namespace cadmc::bench
