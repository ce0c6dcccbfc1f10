// cadmc — command-line front end for the library.
//
//   cadmc scenes
//   cadmc layers  --model vgg11 --device phone
//   cadmc profile --trace run.jsonl[,cloud.jsonl] [--format report|jsonl|csv]
//                 [--top 20] [--out profile.csv]      critical-path profiler
//   cadmc profile --model vgg11 --device phone --scene "4G (weak) indoor"
//                 [--policy all|surgery|branch|tree] [--inferences 8] [--field]
//   cadmc profile --workload distill [--candidates 2]
//                 profiles the real distillation-training kernels: emits
//                 kernel_* spans (the emulator's stage times are modelled)
//   cadmc trace   --scene "4G outdoor quick" [--duration-ms 60000]
//                 [--seed 7] [--out trace.csv]
//   cadmc train   --model vgg11 --device phone --scene "4G (weak) indoor"
//                 [--episodes 150] [--out tree.txt]
//   cadmc compose --model vgg11 --tree tree.txt --bandwidth-mbps 2.5
//   cadmc emulate --model vgg11 --device phone --scene "4G (weak) indoor"
//                 [--inferences 40] [--field] [--outage-rate 0.05]
//                 [--outage-ms 800] [--deadline-ms 300] [--no-fallback]
//                 [--fault-seed 64023]
//   cadmc report  --metrics edge.jsonl,cloud.jsonl [--trace-out t.json]
//   cadmc serve   [--workers 2] [--backlog 64] [--max-queue 64]
//                 [--max-inflight 4] [--duration-ms 2000]
//
// Any subcommand accepts --threads <N>: the size of the worker pool the
// search fan-outs run on (overrides the CADMC_THREADS environment variable;
// default: hardware concurrency). Results are bit-identical for any N.
//
// Any subcommand accepts --kernel-mode deterministic|fast (overrides the
// CADMC_KERNEL_MODE environment variable). `deterministic` (default) runs
// the double-accumulator kernels that are bit-identical to
// tensor::reference (an AVX2 GEMM tile where the CPU has it); `fast`
// runs the AVX2/FMA vector kernels (tolerance contract, still bit-identical
// across thread counts) and falls back to deterministic on hardware
// without AVX2+FMA.
//
// Any subcommand accepts --metrics-out <path>: it enables metric/span
// collection, writes the JSONL event stream there on exit, and prints the
// aggregate run report. It also accepts --trace-out <path>: the collected
// span stream is rendered as a Chrome trace-event / Perfetto JSON document.
// `cadmc report` re-renders saved streams — several comma-separated files
// (e.g. the edge and cloud halves of a field run) are merged into one
// report, their spans joined by shared trace ids.
//
// Every subcommand is deterministic for a given --seed.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "bench/common.h"
#include "data/synth_cifar.h"
#include "engine/accuracy_model.h"
#include "latency/compute_model.h"
#include "nn/factory.h"
#include "latency/device_profile.h"
#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "runtime/gateway.h"
#include "tensor/kernel_mode.h"
#include "tree/tree_io.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace cadmc;

namespace {

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (!util::starts_with(key, "--")) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(2);
    }
    key = key.substr(2);
    if (i + 1 < argc && !util::starts_with(argv[i + 1], "--")) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "true";  // boolean flag
    }
  }
  return flags;
}

std::string flag_or(const Flags& flags, const std::string& key,
                    const std::string& fallback) {
  auto it = flags.find(key);
  return it != flags.end() ? it->second : fallback;
}

nn::Model model_by_name(const std::string& name) {
  if (name == "vgg11") return nn::make_vgg11();
  if (name == "alexnet") return nn::make_alexnet();
  if (name == "mobilenet") return nn::make_mobilenet();
  if (name == "squeezenet") return nn::make_squeezenet();
  std::fprintf(stderr, "unknown model '%s' (vgg11|alexnet|mobilenet|squeezenet)\n",
               name.c_str());
  std::exit(2);
}

int cmd_scenes() {
  util::AsciiTable table({"Scene", "Mean Mbps", "Volatility", "Fades/s", "RTT ms"});
  for (const net::Scene& s : net::all_scenes())
    table.add_row({s.name, util::format_double(s.trace.mean_mbps, 2),
                   util::format_double(s.trace.volatility, 2),
                   util::format_double(s.trace.fade_prob_per_s, 2),
                   util::format_double(s.rtt_ms, 1)});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_layers(const Flags& flags) {
  nn::Model model = model_by_name(flag_or(flags, "model", "vgg11"));
  const latency::ComputeLatencyModel device(
      latency::profile_by_name(flag_or(flags, "device", "phone")));
  util::AsciiTable table({"#", "Layer", "Spec", "Out shape", "MACCs", "ms"});
  nn::Shape shape = model.input_shape();
  double total = 0.0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const double ms = device.layer_latency_ms(model.layer(i), shape);
    const auto macc = model.layer(i).macc(shape);
    shape = model.layer(i).output_shape(shape);
    total += ms;
    table.add_row({std::to_string(i), model.layer(i).name(),
                   model.layer(i).spec().to_string(),
                   tensor::shape_to_string(shape), std::to_string(macc),
                   util::format_double(ms, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("total: %lld MACCs, %.2f ms on %s, %lld params\n",
              static_cast<long long>(model.total_macc()), total,
              flag_or(flags, "device", "phone").c_str(),
              static_cast<long long>(model.param_count()));
  return 0;
}

int cmd_trace(const Flags& flags) {
  const net::Scene scene = net::scene_by_name(flag_or(flags, "scene", "4G indoor static"));
  const double duration = std::stod(flag_or(flags, "duration-ms", "60000"));
  const std::uint64_t seed = std::stoull(flag_or(flags, "seed", "7"));
  const net::BandwidthTrace trace = net::generate_trace(scene.trace, duration, seed);
  std::vector<double> mbps;
  for (double s : trace.samples())
    mbps.push_back(latency::bytes_per_ms_to_mbps(s));
  std::printf("%s: %zu samples @%.0f ms\n", scene.name.c_str(),
              trace.sample_count(), trace.dt_ms());
  std::printf("%s\n", util::sparkline(std::vector<double>(
                          mbps.begin(), mbps.begin() + std::min<std::size_t>(
                                                           mbps.size(), 120)))
                          .c_str());
  std::printf("mean %.2f  p25 %.2f  p50 %.2f  p75 %.2f Mbps\n",
              util::mean(mbps), util::quantile(mbps, 0.25),
              util::quantile(mbps, 0.5), util::quantile(mbps, 0.75));
  const std::string out = flag_or(flags, "out", "");
  if (!out.empty()) {
    if (!trace.save_csv(out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_train(const Flags& flags) {
  const std::string model_name = flag_or(flags, "model", "vgg11");
  bench::BenchConfig config;
  config.branch_episodes = std::stoi(flag_or(flags, "episodes", "150"));
  config.tree_episodes = config.branch_episodes;
  config.seed = std::stoull(flag_or(flags, "seed", "48879"));
  net::EvalContext context{
      model_name == "vgg11" ? "VGG11" : "AlexNet",
      flag_or(flags, "device", "phone"),
      net::scene_by_name(flag_or(flags, "scene", "4G indoor static"))};
  std::printf("training: %s on %s under '%s' (%d episodes)...\n",
              model_name.c_str(), context.device.c_str(),
              context.scene.name.c_str(), config.tree_episodes);
  const bench::ContextArtifacts art = bench::train_context(context, config);
  std::printf("surgery reward %.2f | branch %.2f | tree %.2f\n",
              art.surgery_offline_reward, art.branch_offline_reward,
              art.tree.tree_reward);
  std::printf("%s", art.tree.tree.to_string().c_str());
  const std::string out = flag_or(flags, "out", "");
  if (!out.empty()) {
    if (!tree::save_tree(art.tree.tree, out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("model tree saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_compose(const Flags& flags) {
  nn::Model base = model_by_name(flag_or(flags, "model", "vgg11"));
  const std::string path = flag_or(flags, "tree", "");
  if (path.empty()) {
    std::fprintf(stderr, "--tree <file> is required\n");
    return 2;
  }
  const tree::ModelTree model_tree = tree::load_tree(base, path);
  const double bw = latency::mbps_to_bytes_per_ms(
      std::stod(flag_or(flags, "bandwidth-mbps", "2.0")));
  const auto composition =
      model_tree.compose_online([&](std::size_t) { return bw; });
  std::printf("bandwidth %.2f Mbps -> fork path [",
              latency::bytes_per_ms_to_mbps(bw));
  for (std::size_t i = 0; i < composition.forks.size(); ++i)
    std::printf("%s%d", i ? "," : "", composition.forks[i]);
  std::printf("], cut@%zu/%zu\nplan: ", composition.strategy.cut, base.size());
  for (std::size_t i = 0; i < composition.strategy.plan.size(); ++i) {
    if (i == composition.strategy.cut) std::printf(" || cloud:");
    if (i < composition.strategy.cut)
      std::printf("%s",
                  compress::technique_short_name(composition.strategy.plan[i])
                      .c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_emulate(const Flags& flags) {
  const std::string model_name = flag_or(flags, "model", "vgg11");
  bench::BenchConfig config;
  config.branch_episodes = std::stoi(flag_or(flags, "episodes", "150"));
  config.tree_episodes = config.branch_episodes;
  net::EvalContext context{
      model_name == "vgg11" ? "VGG11" : "AlexNet",
      flag_or(flags, "device", "phone"),
      net::scene_by_name(flag_or(flags, "scene", "4G indoor static"))};
  const bench::ContextArtifacts art = bench::train_context(context, config);
  const bool field = flags.count("field") > 0;

  // Fault knobs: random link outages spliced into the trace, a deadline on
  // the cloud leg, and the edge-only fallback (on unless --no-fallback).
  const double outage_rate = std::stod(flag_or(flags, "outage-rate", "0"));
  const double deadline_ms = std::stod(flag_or(flags, "deadline-ms", "0"));
  runtime::FaultPlan plan;
  plan.outage_rate_per_s = outage_rate;
  plan.outage_mean_ms = std::stod(flag_or(flags, "outage-ms", "800"));
  plan.seed = std::stoull(flag_or(flags, "fault-seed", "64023"));
  runtime::FaultInjector injector(plan);

  runtime::RunnerConfig rc;
  rc.mode = field ? runtime::TimingMode::kField : runtime::TimingMode::kEstimated;
  rc.inferences = std::stoi(flag_or(flags, "inferences", "40"));
  rc.seed = 0xC11;
  rc.cloud_deadline_ms = deadline_ms;
  rc.edge_fallback = flags.count("no-fallback") == 0;
  const net::BandwidthTrace trace =
      outage_rate > 0.0 ? injector.degrade_trace(art.trace) : art.trace;
  runtime::InferenceRunner runner(*art.evaluator, trace, art.boundaries, rc);

  bench::PolicyStats stats;
  stats.surgery = runner.run_surgery();
  stats.branch = runner.run_branch(art.branch.best);
  stats.tree = runner.run_tree(art.tree.tree);

  const bool faulted = outage_rate > 0.0 || deadline_ms > 0.0;
  util::AsciiTable table({"Policy", "Reward", "Latency ms", "p99 ms",
                          "Accuracy %", "Avail %"});
  const auto row = [&](const char* name, const runtime::RunStats& s) {
    table.add_row({name, util::format_double(s.mean_reward, 2),
                   util::format_double(s.mean_latency_ms, 2),
                   util::format_double(s.p99_latency_ms, 2),
                   util::format_double(s.mean_accuracy * 100, 2),
                   util::format_double(s.availability * 100, 1)});
  };
  row("Dynamic DNN Surgery", stats.surgery);
  row("Optimal Branch", stats.branch);
  row("Model Tree", stats.tree);
  std::printf("mode: %s\n%s", field ? "field" : "emulation",
              table.to_string().c_str());
  if (faulted)
    std::printf(
        "faults: outage rate %.3f/s (mean %.0f ms), deadline %.0f ms, "
        "fallback %s\n"
        "surgery: %d misses, %d fallbacks, %d failures | tree: %d misses, "
        "%d fallbacks, %d failures\n",
        outage_rate, plan.outage_mean_ms, deadline_ms,
        rc.edge_fallback ? "on" : "off", stats.surgery.deadline_misses,
        stats.surgery.edge_fallbacks, stats.surgery.failures,
        stats.tree.deadline_misses, stats.tree.edge_fallbacks,
        stats.tree.failures);
  return 0;
}

/// The global registry's spans that started at or after `mark_ms`
/// (obs::steady_now_ms() taken just before an inline workload).
std::vector<obs::SpanRecord> spans_since(double mark_ms) {
  std::vector<obs::SpanRecord> spans = obs::MetricsRegistry::global().spans();
  std::erase_if(spans, [&](const obs::SpanRecord& s) {
    return s.start_ms < mark_ms;
  });
  return spans;
}

int cmd_profile(const Flags& flags) {
  // Two modes: point at recorded trace files (--trace, JSONL metric streams
  // and/or Chrome trace documents, comma-separated — e.g. the edge and
  // cloud halves of a field run, merged by shared trace ids), or run an
  // emulator workload inline and profile the spans it produced.
  obs::ProfileReport report;
  const std::string paths = flag_or(flags, "trace", "");
  if (!paths.empty()) {
    std::vector<obs::SpanRecord> spans;
    for (const std::string& raw : util::split(paths, ',')) {
      const std::string path = util::trim(raw);
      if (path.empty()) continue;
      std::string text;
      if (!util::read_file(path, text)) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
      }
      const std::vector<obs::SpanRecord> parsed =
          obs::looks_like_chrome_trace(text)
              ? obs::spans_from_chrome_trace(text)
              : obs::spans_from_events(obs::parse_jsonl(text));
      spans.insert(spans.end(), parsed.begin(), parsed.end());
    }
    if (spans.empty()) {
      std::fprintf(stderr, "no span records in %s\n", paths.c_str());
      return 1;
    }
    report = obs::profile_spans(spans);
  } else if (flag_or(flags, "workload", "emulate") == "distill") {
    // Inline distillation-training workload: the RealAccuracyEvaluator hot
    // loop that performance-driven search pays per candidate. Unlike the
    // emulator (whose stage times are modelled ms, not measured spans), this
    // path executes the real compute kernels, so the profile attributes
    // wall time to the kernel_* spans (kernel_gemm, kernel_pool,
    // kernel_loss, kernel_sgd_step, ...). CI smoke-checks their presence.
    const int candidates = std::stoi(flag_or(flags, "candidates", "2"));
    const data::SynthCifar dataset(12, 4, 0xD157, /*noise=*/0.15);
    const nn::Model base = nn::make_tiny_cnn(4, 12, 8);
    const engine::RealAccuracyEvaluator evaluator(base, dataset, 128, 64, 16,
                                                  /*train_steps=*/8,
                                                  /*lr=*/0.05);
    obs::set_enabled(true);
    const double mark = obs::steady_now_ms();
    std::uint64_t seed = 100;
    for (int i = 0; i < candidates; ++i) {
      nn::Model student = nn::make_tiny_cnn(4, 12, seed++);
      evaluator.train_and_evaluate(student);
    }
    report = obs::profile_spans(spans_since(mark));
  } else {
    // Inline workload: the emulator run from `cadmc emulate`, with span
    // collection forced on, profiled straight from the registry.
    const std::string model_name = flag_or(flags, "model", "vgg11");
    const std::string policy = flag_or(flags, "policy", "all");
    bench::BenchConfig config;
    config.branch_episodes = std::stoi(flag_or(flags, "episodes", "150"));
    config.tree_episodes = config.branch_episodes;
    net::EvalContext context{
        model_name == "vgg11" ? "VGG11" : "AlexNet",
        flag_or(flags, "device", "phone"),
        net::scene_by_name(flag_or(flags, "scene", "4G indoor static"))};
    const bench::ContextArtifacts art = bench::train_context(context, config);
    runtime::RunnerConfig rc;
    rc.mode = flags.count("field") > 0 ? runtime::TimingMode::kField
                                       : runtime::TimingMode::kEstimated;
    rc.inferences = std::stoi(flag_or(flags, "inferences", "8"));
    rc.seed = 0xC11;
    runtime::InferenceRunner runner(*art.evaluator, art.trace, art.boundaries,
                                    rc);
    obs::set_enabled(true);
    // The runner records into the global registry via ScopedSpan defaults;
    // profile only the spans this workload records instead of resetting
    // state the caller may be exporting with --metrics-out.
    const double mark = obs::steady_now_ms();
    if (policy == "all" || policy == "surgery") runner.run_surgery();
    if (policy == "all" || policy == "branch") runner.run_branch(art.branch.best);
    if (policy == "all" || policy == "tree") runner.run_tree(art.tree.tree);
    report = obs::profile_spans(spans_since(mark));
  }

  const std::string format = flag_or(flags, "format", "report");
  std::string rendered;
  if (format == "jsonl") {
    rendered = obs::profile_jsonl(report);
  } else if (format == "csv") {
    rendered = obs::profile_csv(report);
  } else if (format == "report") {
    rendered = obs::render_profile(
        report, static_cast<std::size_t>(
                    std::stoul(flag_or(flags, "top", "20"))));
  } else {
    std::fprintf(stderr, "--format expects report|jsonl|csv, got '%s'\n",
                 format.c_str());
    return 2;
  }
  const std::string out = flag_or(flags, "out", "");
  if (!out.empty()) {
    if (!util::write_file(out, rendered)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("profile saved to %s\n", out.c_str());
  } else {
    std::printf("%s", rendered.c_str());
  }
  return 0;
}

int cmd_report(const Flags& flags) {
  const std::string paths = flag_or(flags, "metrics", "");
  if (paths.empty()) {
    std::fprintf(stderr, "--metrics <file.jsonl[,file2.jsonl,...]> is required\n");
    return 2;
  }
  // Merge the streams of several processes (edge + cloud halves of a field
  // run): their spans share trace ids, so the per-trace rollup and the
  // exported Chrome trace stitch them back into single causal trees.
  std::vector<std::map<std::string, std::string>> events;
  for (const std::string& raw : util::split(paths, ',')) {
    const std::string path = util::trim(raw);
    if (path.empty()) continue;
    std::string text;
    if (!util::read_file(path, text)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    const auto parsed = obs::parse_jsonl(text);
    events.insert(events.end(), parsed.begin(), parsed.end());
  }
  std::printf("%zu events in %s\n%s", events.size(), paths.c_str(),
              obs::render_report(obs::report_from_events(events)).c_str());
  const std::string trace_out = flag_or(flags, "trace-out", "");
  if (!trace_out.empty()) {
    const std::string doc =
        obs::to_chrome_trace(obs::spans_from_events(events));
    if (!util::write_file(trace_out, doc)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("chrome trace saved to %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  return 0;
}

int cmd_serve(const Flags& flags) {
  // Standalone echo gateway: brings the concurrent serving stack up on a
  // real port so its admission/shedding behaviour can be poked from outside
  // (e.g. a second `cadmc` process, netcat with hand-rolled frames, or the
  // serve_throughput bench pointed at a live instance). Serves for
  // --duration-ms, then drains gracefully and reports the gateway counters.
  runtime::GatewayConfig config;
  config.worker_threads = std::stoi(flag_or(flags, "workers", "2"));
  config.listen_backlog = std::stoi(flag_or(flags, "backlog", "64"));
  config.max_queue = static_cast<std::size_t>(
      std::stoul(flag_or(flags, "max-queue", "64")));
  config.max_inflight_per_session =
      std::stoi(flag_or(flags, "max-inflight", "4"));
  const double duration_ms = std::stod(flag_or(flags, "duration-ms", "2000"));
  obs::set_enabled(true);
  runtime::Gateway gateway(
      [](const runtime::GatewayRequest& request) { return request.payload; },
      config);
  const std::uint16_t port = gateway.start();
  std::printf("gateway listening on 127.0.0.1:%u (%d workers, queue %zu, "
              "inflight cap %d) for %.0f ms\n",
              port, config.worker_threads, config.max_queue,
              config.max_inflight_per_session, duration_ms);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(duration_ms));
  const runtime::GatewayStats live = gateway.stats();
  std::printf("live: queue %zu, executing %d, connections %zu, sessions %zu\n",
              live.queue_depth, live.executing, live.connections,
              live.sessions.size());
  gateway.stop();
  const runtime::GatewayStats stats = gateway.stats();
  util::AsciiTable table({"Counter", "Value"});
  const auto row = [&](const char* name, std::uint64_t v) {
    table.add_row({name, std::to_string(v)});
  };
  row("accepted", stats.accepted);
  row("accept_overflow", stats.accept_overflow);
  row("admitted", stats.admitted);
  row("completed", stats.completed);
  row("shed", stats.shed);
  row("expired", stats.expired);
  row("duplicates", stats.duplicates);
  row("errors", stats.errors);
  std::printf("%s", table.to_string().c_str());
  return 0;
}

void usage() {
  std::printf(
      "cadmc <command> [flags]\n"
      "  scenes                               list network scene presets\n"
      "  layers  --model M --device D         per-layer latency table\n"
      "  profile --trace f.jsonl[,g.json]     critical-path profile of a\n"
      "          [--format report|jsonl|csv]  recorded span stream (JSONL\n"
      "          [--top N] [--out f]          metrics or Chrome trace), or\n"
      "  profile --model M --device D --scene S [--policy P] [--inferences N]\n"
      "          [--field]                    profile an inline emulator run\n"
      "  profile --workload distill [--candidates N]\n"
      "                                       profile the real distillation\n"
      "                                       kernels (kernel_* spans)\n"
      "  trace   --scene S [--out f.csv]      generate a bandwidth trace\n"
      "  train   --model M --device D --scene S [--out tree.txt]\n"
      "  compose --model M --tree f --bandwidth-mbps X\n"
      "  emulate --model M --device D --scene S [--field]\n"
      "          [--outage-rate R] [--outage-ms MS] [--deadline-ms MS]\n"
      "          [--no-fallback] [--fault-seed N]   fault-injected runs\n"
      "  report  --metrics a.jsonl[,b.jsonl]  render saved metrics streams\n"
      "          [--trace-out trace.json]     (multiple files are merged by\n"
      "                                        trace id, e.g. edge + cloud)\n"
      "  serve   [--workers N] [--backlog N] [--max-queue N]\n"
      "          [--max-inflight N] [--duration-ms MS]   run an echo gateway\n"
      "Any command also takes --threads <N> to size the search worker pool\n"
      "(overrides CADMC_THREADS; default: hardware concurrency; results are\n"
      "bit-identical for any N), --kernel-mode deterministic|fast to select\n"
      "the compute kernels (overrides CADMC_KERNEL_MODE; fast = AVX2/FMA,\n"
      "falls back to deterministic off-AVX2), --metrics-out <path> to\n"
      "collect and save a metrics/span JSONL stream and print the run\n"
      "report on exit, and --trace-out <path> to save the spans as a\n"
      "Chrome/Perfetto trace.\n");
}

int dispatch(const std::string& command, const Flags& flags) {
  if (command == "scenes") return cmd_scenes();
  if (command == "layers") return cmd_layers(flags);
  if (command == "profile") return cmd_profile(flags);
  if (command == "trace") return cmd_trace(flags);
  if (command == "train") return cmd_train(flags);
  if (command == "compose") return cmd_compose(flags);
  if (command == "emulate") return cmd_emulate(flags);
  if (command == "report") return cmd_report(flags);
  if (command == "serve") return cmd_serve(flags);
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags = parse_flags(argc, argv, 2);
  obs::init_from_env();
  // CADMC_METRICS_INTERVAL_MS starts the live JSONL heartbeat exporter; its
  // destructor (end of main) writes the final snapshot.
  const auto snapshot_exporter = obs::SnapshotExporter::from_env();
  const std::string threads = flag_or(flags, "threads", "");
  if (!threads.empty()) {
    // Strict parse: std::stoul accepted "4x" (as 4), signs and whitespace.
    const auto parsed = util::parse_thread_count(threads);
    if (!parsed) {
      std::fprintf(stderr,
                   "--threads expects an integer in 1..%zu, got '%s'\n",
                   util::kMaxThreadCount, threads.c_str());
      return 2;
    }
    util::set_configured_threads(*parsed);
  }
  const std::string kernel_mode = flag_or(flags, "kernel-mode", "");
  if (!kernel_mode.empty()) {
    const auto parsed = tensor::parse_kernel_mode(kernel_mode);
    if (!parsed) {
      std::fprintf(stderr,
                   "--kernel-mode expects deterministic|fast, got '%s'\n",
                   kernel_mode.c_str());
      return 2;
    }
    tensor::set_kernel_mode(*parsed);
  }
  const std::string metrics_out = flag_or(flags, "metrics-out", "");
  // `report` reads saved streams; its own --trace-out is handled there.
  const std::string trace_out =
      command != "report" ? flag_or(flags, "trace-out", "") : "";
  if (!metrics_out.empty() || !trace_out.empty()) obs::set_enabled(true);
  int rc;
  try {
    rc = dispatch(command, flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const auto& registry = obs::MetricsRegistry::global();
  if (!metrics_out.empty()) {
    if (obs::export_jsonl(registry, metrics_out))
      std::printf("\nmetrics saved to %s\n", metrics_out.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
    std::printf("%s", obs::render_report(obs::make_report(registry)).c_str());
  }
  if (!trace_out.empty()) {
    if (util::write_file(trace_out, obs::to_chrome_trace(registry.spans())))
      std::printf("chrome trace saved to %s (load in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_out.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }
  return rc;
}
