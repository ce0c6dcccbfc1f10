// edge_frame: one edge session calling DecisionEngine::infer in a closed loop
// on SynthCifar frames. The engine is trained offline on scene
// "4G outdoor quick" with a reduced search budget; the workload seed picks the
// frames and when each frame arrives along the scene's bandwidth trace.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "compress/registry.h"
#include "data/synth_cifar.h"
#include "harness.h"
#include "net/estimator.h"
#include "net/scenes.h"
#include "nn/factory.h"
#include "runtime/decision_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace cadmc;

constexpr const char* kScene = "4G outdoor quick";
// The scene's trace. With it the reduced budget below trains a tree whose
// two top-level forks compose different cuts, the all-cloud cut 0 and the
// all-edge cut 29, both uncompressed. Frames then cost the same whichever
// fork they take, and the latency percentiles do not straddle two modes.
// (On the default trace, fork 0 composes a compressed cut 25 that runs ~25%
// faster, and the p50 falls between the modes, moving by ~17% run to run.)
constexpr std::uint64_t kTraceSeed = 8;
// Reduced search budget: ~5 s per set-up instead of the ~20 s the default
// budget takes.
constexpr int kTreeEpisodes = 4;
constexpr int kBranchEpisodes = 80;
constexpr int kClasses = 10;
constexpr std::size_t kFramePool = 8;
// Estimator settings and measurement cadence of DecisionEngine::infer, so
// the replay composes the same forks from the same readings.
constexpr double kStalenessMs = 200.0;
constexpr double kAlpha = 0.6;

std::unique_ptr<runtime::DecisionEngine> set_up_engine(double& train_s) {
  runtime::EngineConfig config;
  config.scene = net::scene_by_name(kScene);
  config.trace_seed = kTraceSeed;
  config.tree_config.episodes = kTreeEpisodes;
  config.tree_config.branch_config.episodes = kBranchEpisodes;
  auto engine = std::make_unique<runtime::DecisionEngine>(
      nn::make_vgg11(kClasses), std::move(config));
  const auto t0 = Clock::now();
  engine->train_offline();
  train_s = ms_since(t0) / 1000.0;
  return engine;
}

struct Sample {
  std::size_t frame = 0;
  bool ok = false;  // infer returned
  bool uncompressed = false;
  std::size_t cut = 0;
  tensor::Tensor logits;
};

// Per-stage host times of the traced replay, ms.
struct Stages {
  std::vector<double> infer, compose, realize, evaluate, prefix, suffix;
  std::int64_t gemm_flops = 0;
  bool forks_match = true;
};

class EdgeFrameBench {
 public:
  explicit EdgeFrameBench(const Options& options) : options_(options) {}

  Result run() {
    Result result;
    // The first set-up serves the run. The rest only time set-up again, after
    // the measured phase, so that their freed memory stays out of peak_rss_mb.
    std::vector<double> setup_s, train_s;
    set_up(setup_s, train_s);
    const std::size_t layers = engine_->base().size();
    make_inputs();
    // Warm-up: the first frames pay lazy arena growth.
    for (std::size_t i = 0; i < 2; ++i) engine_->infer(frames_[i], next_time());

    if (!options_.trace) {
      std::vector<Window> windows(kWindows);
      for (Window& w : windows)
        w.latency_ms = closed_loop(options_.seconds / kWindows, nullptr, &w.done_ms);
      const double rss_mb = peak_rss_mb();
      verify(result);
      while (static_cast<int>(setup_s.size()) < options_.setup_reps) set_up(setup_s, train_s);
      result.add_windowed(windows);
      result.add("setup_s", quantile(setup_s, 0.5), "s");
      result.add("peak_rss_mb", rss_mb, "MB");
      return result;
    }

    const std::vector<double> plain = closed_loop(options_.seconds / 3.0, nullptr);
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
    Stages stages;
    closed_loop(options_.seconds * 2.0 / 3.0, &stages);
    const std::int64_t arena_grows = global_counter("cadmc.kernel.arena.grows");
    const auto spans = obs::MetricsRegistry::global().spans();
    obs::set_enabled(false);
    verify(result);
    if (!stages.forks_match) result.correct = false;
    while (static_cast<int>(setup_s.size()) < options_.setup_reps) set_up(setup_s, train_s);

    std::set<std::size_t> cuts;
    double offloads = 0.0;
    for (const Sample& s : samples_) {
      if (!s.ok) continue;
      cuts.insert(s.cut);
      if (s.cut < layers) offloads += 1.0;
    }
    const double traced_frames = static_cast<double>(stages.infer.size());
    const std::vector<double> realize = span_walls(spans, "realize");
    const double stage_sum = sum(stages.compose) + sum(stages.realize) +
                             sum(stages.evaluate) + sum(stages.prefix) +
                             sum(stages.suffix);
    result.add("tree.compose_us_p50", 1000.0 * quantile(stages.compose, 0.5), "us");
    result.add("tree.offload_share", offloads / static_cast<double>(samples_.size()), "share");
    result.add("tree.distinct_cuts", static_cast<double>(cuts.size()), "count");
    result.add("engine.realize_ms_p50", quantile(realize, 0.5), "ms");
    result.add("engine.realize_share", sum(realize) / sum(stages.infer), "share");
    result.add("engine.evaluate_us_p50", 1000.0 * quantile(stages.evaluate, 0.5), "us");
    result.add("nn.edge_forward_ms_p50", quantile(stages.prefix, 0.5), "ms");
    result.add("nn.cloud_forward_ms_p50", quantile(stages.suffix, 0.5), "ms");
    result.add("tensor.gemm_flops_per_frame",
               static_cast<double>(stages.gemm_flops) / traced_frames, "flop");
    result.add("tensor.arena_grows", static_cast<double>(arena_grows), "count");
    result.add("tensor.encode_us_p50", 0.0, "us");
    result.add("tensor.decode_us_p50", 0.0, "us");
    result.add("runtime.call_ms_p50", 0.0, "ms");
    result.add("runtime.call_ms_p99", 0.0, "ms");
    result.add("runtime.echo_us_p50", 0.0, "us");
    result.add("runtime.queue_ms_p50", 0.0, "ms");
    result.add("runtime.queue_ms_p99", 0.0, "ms");
    result.add("runtime.handler_wait_ms_p50", 0.0, "ms");
    result.add("runtime.shed_share", 0.0, "share");
    result.add("runtime.expired_share", 0.0, "share");
    result.add("obs.overhead_share",
               quantile(stages.infer, 0.5) / quantile(plain, 0.5) - 1.0, "share");
    result.add("setup.train_offline_s", quantile(train_s, 0.5), "s");
    result.add("harness.send_lag_ms_p99", 0.0, "ms");
    result.add("harness.offered_fps", 0.0, "1/s");
    result.add("frame.stage_coverage", stage_sum / sum(stages.infer), "share");
    return result;
  }

 private:
  void set_up(std::vector<double>& setup_s, std::vector<double>& train_s) {
    engine_.reset();
    const auto t0 = Clock::now();
    double train = 0.0;
    engine_ = set_up_engine(train);
    setup_s.push_back(ms_since(t0) / 1000.0);
    train_s.push_back(train);
  }

  // Frames come from a seeded pool; arrival times walk the scene's trace by
  // the golden ratio from a seeded offset, so every run samples the trace
  // (and so the tree's forks) evenly however many frames it completes.
  void make_inputs() {
    util::Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL + 0xED6E);
    const data::SynthCifar dataset(32, kClasses, rng.next_u64());
    for (std::size_t i = 0; i < kFramePool; ++i)
      frames_.push_back(
          dataset.make_batch(static_cast<std::int64_t>(rng.uniform_index(1u << 20)), 1)
              .images);
    for (std::size_t i = 0; i < 64; ++i) order_.push_back(rng.uniform_index(kFramePool));
    phase_ = rng.uniform();
    span_ms_ = engine_->trace().duration_ms() - 1000.0;
  }

  double next_time() {
    phase_ = std::fmod(phase_ + 0.6180339887498949, 1.0);
    return phase_ * span_ms_;
  }

  std::vector<double> closed_loop(double seconds, Stages* stages,
                                  std::vector<double>* done_ms = nullptr) {
    std::vector<double> latency;
    const auto start = Clock::now();
    while (ms_since(start) < seconds * 1000.0) {
      const std::size_t frame = order_[samples_.size() % order_.size()];
      const double t_ms = next_time();
      Sample sample;
      sample.frame = frame;
      runtime::DecisionEngine::InferenceOutcome outcome;
      const std::int64_t flops0 =
          stages != nullptr ? global_counter("cadmc.kernel.gemm_flops") : 0;
      const double ms = timed("bench.infer", [&] {
        try {
          outcome = engine_->infer(frames_[frame], t_ms);
          sample.ok = true;
        } catch (const std::exception&) {
        }
      });
      latency.push_back(sample.ok ? ms : std::numeric_limits<double>::infinity());
      if (done_ms != nullptr && sample.ok) done_ms->push_back(ms_since(start));
      if (sample.ok) {
        sample.cut = outcome.strategy.cut;
        sample.uncompressed = std::all_of(
            outcome.strategy.plan.begin(), outcome.strategy.plan.end(),
            [](compress::TechniqueId id) { return id == compress::TechniqueId::kNone; });
        sample.logits = std::move(outcome.logits);
        if (stages != nullptr) {
          stages->gemm_flops += global_counter("cadmc.kernel.gemm_flops") - flops0;
          stages->infer.push_back(ms);
          replay(frame, t_ms, outcome, *stages);
        }
      }
      samples_.push_back(std::move(sample));
    }
    return latency;
  }

  // The stages of one infer() call, re-run as separate public calls.
  void replay(std::size_t frame, double t_ms,
              const runtime::DecisionEngine::InferenceOutcome& outcome,
              Stages& stages) {
    const runtime::DecisionEngine& engine = *engine_;
    tree::ModelTree::Composition composition;
    stages.compose.push_back(timed("bench.compose", [&] {
      net::BandwidthEstimator estimator(engine.trace(), kStalenessMs, kAlpha);
      double t_cursor = t_ms;
      composition = engine.tree().compose_online([&](std::size_t block) {
        const double bw = estimator.estimate_at(t_cursor);
        t_cursor += 5.0 + 10.0 * static_cast<double>(block);
        return bw;
      });
    }));
    if (composition.forks != outcome.forks) stages.forks_match = false;
    engine::Strategy strategy = composition.strategy;
    if (outcome.degraded) strategy.cut = engine.base().size();
    engine::RealizedStrategy realized;
    stages.realize.push_back(timed("bench.realize", [&] {
      realized = engine::realize_strategy(engine.base(), strategy, registry_, realize_rng_);
    }));
    stages.evaluate.push_back(timed("bench.evaluate", [&] {
      engine.evaluator().evaluate(strategy, engine.trace().at(t_ms));
    }));
    tensor::Tensor features;
    stages.prefix.push_back(timed("bench.edge_forward", [&] {
      features = realized.model.forward_range(frames_[frame], 0, realized.cut);
    }));
    stages.suffix.push_back(timed("bench.cloud_forward", [&] {
      if (realized.cut < realized.model.size())
        realized.model.forward_range(features, realized.cut, realized.model.size());
    }));
  }

  // Every answer is [1,10] and finite; an uncompressed composition must
  // equal base.forward bitwise. References are computed after the timed loop.
  void verify(Result& result) {
    if (options_.inject == "corrupt" && !samples_.empty() && samples_[0].ok)
      samples_[0].logits.at(0) = std::numeric_limits<float>::quiet_NaN();
    nn::Model reference_model = engine_->base();
    std::vector<tensor::Tensor> references(kFramePool);
    for (Sample& s : samples_) {
      ++result.attempted;
      bool good = s.ok && valid_logits(s.logits, kClasses);
      if (good && s.uncompressed) {
        tensor::Tensor& ref = references[s.frame];
        if (ref.empty()) ref = reference_model.forward(frames_[s.frame]);
        good = bitwise_equal(s.logits, ref);
      }
      if (!good) {
        ++result.failed;
        if (s.ok) result.correct = false;
      }
    }
  }

  const Options& options_;
  std::unique_ptr<runtime::DecisionEngine> engine_;
  compress::TechniqueRegistry registry_;
  util::Rng realize_rng_{0xBE7C};
  std::vector<tensor::Tensor> frames_;
  std::vector<std::size_t> order_;
  double phase_ = 0.0;
  double span_ms_ = 0.0;
  std::vector<Sample> samples_;
};

}  // namespace

Result run_edge_frame(const Options& options) {
  return EdgeFrameBench(options).run();
}

}  // namespace perfbench
