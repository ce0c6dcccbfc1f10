// cloud_conv_suffix: N sessions on N loopback connections from this process
// send pre-encoded VGG11 features, taken after the first conv block, to one
// CloudExecutor serving base[3:]. Each window of a run has two phases: an
// open loop on a seeded arrival schedule at a fixed offered rate (latency
// timed from each request's due time), then a closed-loop saturation phase
// with one outstanding call per connection.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "data/synth_cifar.h"
#include "harness.h"
#include "latency/device_profile.h"
#include "nn/factory.h"
#include "runtime/executor.h"
#include "runtime/gateway.h"
#include "tensor/serialize.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace cadmc;

// First cloud layer: the features after conv-relu-pool are 64x16x16 floats
// (64 KB), and the suffix is nearly the whole network.
constexpr std::size_t kCut = 3;
constexpr double kOfferedFps = 4.0;  // open loop; ~45% of the seed's capacity
constexpr double kLimitMs = 3000.0;  // latency limit: the per-call deadline

constexpr int kClasses = 10;
constexpr std::size_t kFramePool = 8;
constexpr int kMaxSessions = 4;
constexpr double kOpenLoopShare = 0.5;  // of the run; the rest saturates
// An open loop whose mean send lag exceeds this share of the mean
// inter-arrival time did not offer its rate: the run is invalid. (The mean,
// not the p99: on a shared host single wake-ups run late by milliseconds.)
constexpr double kMaxLagShare = 0.25;

struct Reference {
  tensor::Tensor input;
  tensor::Tensor features;
  runtime::Blob request;  // pre-encoded features
  tensor::Tensor logits;  // standalone base[cut:] forward
};

enum class Outcome { kOk, kWrong, kBusy, kFailed };

struct PhaseStats {
  std::vector<double> latency_ms;  // open loop: from due time; +inf = failed
  std::vector<double> lag_ms;
  std::int64_t attempted = 0, ok = 0, wrong = 0, failed = 0;
  std::vector<double> done_ms;  // saturation: completion times of correct answers
  double offered_fps = 0.0;  // open loop: scheduled requests / phase length

  void merge(const PhaseStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    done_ms.insert(done_ms.end(), o.done_ms.begin(), o.done_ms.end());
    attempted += o.attempted;
    ok += o.ok;
    wrong += o.wrong;
    failed += o.failed;
  }
  void count(Outcome outcome) {
    ++attempted;
    if (outcome == Outcome::kOk) {
      ++ok;
      return;
    }
    ++failed;
    if (outcome == Outcome::kWrong) ++wrong;
  }
};

class CloudConvSuffixBench {
 public:
  explicit CloudConvSuffixBench(const Options& options)
      : options_(options),
        sessions_(std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1,
                             kMaxSessions)) {}

  ~CloudConvSuffixBench() { tear_down(); }

  Result run() {
    // The first set-up serves the run. The rest only time set-up again, after
    // the measured phases, so that their freed memory stays out of peak_rss_mb.
    std::vector<double> setup_s;
    timed_set_up(setup_s);
    // Warm-up: one verified and counted call per connection.
    PhaseStats warm;
    for (auto& client : clients_) warm.count(call(*client, refs_[0]));
    if (warm.ok != static_cast<std::int64_t>(clients_.size()))
      std::fprintf(stderr, "perfbench: warm-up calls failed\n");

    Result result;
    if (!options_.trace) {
      // Each window is an open-loop phase followed by a saturation phase.
      std::vector<Window> windows(kWindows);
      PhaseStats open, saturated;
      for (Window& w : windows) {
        const PhaseStats o = open_loop(options_.seconds * kOpenLoopShare / kWindows);
        PhaseStats s = saturate(options_.seconds * (1.0 - kOpenLoopShare) / kWindows);
        w.latency_ms = o.latency_ms;
        w.done_ms = s.done_ms;
        open.merge(o);
        saturated.merge(s);
      }
      const double rss_mb = peak_rss_mb();
      check_lag(open);
      tally(result, {warm, open, saturated});
      while (static_cast<int>(setup_s.size()) < options_.setup_reps) timed_set_up(setup_s);
      result.add_windowed(windows);
      result.add("setup_s", quantile(setup_s, 0.5), "s");
      result.add("peak_rss_mb", rss_mb, "MB");
      return result;
    }

    const double third = options_.seconds / 3.0;
    const PhaseStats plain = open_loop(third);
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
    const PhaseStats open = open_loop(third);
    collect();
    const PhaseStats saturated = saturate(third);
    collect();
    PhaseStats lagged = plain;
    lagged.merge(open);
    check_lag(lagged);
    tally(result, {warm, plain, open, saturated});

    // Standalone public calls on the workload's own features.
    std::vector<double> encode_us, decode_us, prefix_ms, suffix_ms;
    for (int i = 0; i < 200; ++i) {
      const Reference& ref = refs_[static_cast<std::size_t>(i) % refs_.size()];
      runtime::Blob blob;
      encode_us.push_back(1000.0 * timed("bench.encode", [&] {
        blob = tensor::encode_tensor(ref.features);
      }));
      decode_us.push_back(1000.0 * timed("bench.decode", [&] {
        std::size_t offset = 0;
        tensor::decode_tensor(blob, offset);
      }));
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(4, refs_.size()); ++i) {
      prefix_ms.push_back(timed("bench.edge_forward", [&] {
        base_.forward_range(refs_[i].input, 0, kCut);
      }));
      suffix_ms.push_back(timed("bench.cloud_forward", [&] {
        base_.forward_range(refs_[i].features, kCut, base_.size());
      }));
    }
    const std::vector<double> echo_us = echo(0.5);
    obs::set_enabled(false);
    while (static_cast<int>(setup_s.size()) < options_.setup_reps) timed_set_up(setup_s);

    const double traced = static_cast<double>(open.attempted + saturated.attempted);
    const std::vector<double> queue = span_walls(spans_, "gateway_queue");
    result.add("tree.compose_us_p50", 0.0, "us");
    result.add("tree.offload_share", 0.0, "share");
    result.add("tree.distinct_cuts", 0.0, "count");
    result.add("engine.realize_ms_p50", 0.0, "ms");
    result.add("engine.realize_share", 0.0, "share");
    result.add("engine.evaluate_us_p50", 0.0, "us");
    result.add("nn.edge_forward_ms_p50", quantile(prefix_ms, 0.5), "ms");
    result.add("nn.cloud_forward_ms_p50", quantile(suffix_ms, 0.5), "ms");
    result.add("tensor.gemm_flops_per_frame",
               static_cast<double>(gemm_flops_) / static_cast<double>(open.ok + saturated.ok),
               "flop");
    result.add("tensor.arena_grows", static_cast<double>(arena_grows_), "count");
    result.add("tensor.encode_us_p50", quantile(encode_us, 0.5), "us");
    result.add("tensor.decode_us_p50", quantile(decode_us, 0.5), "us");
    const std::vector<double> call_ms = span_walls(spans_, "bench.call");
    result.add("runtime.call_ms_p50", quantile(call_ms, 0.5), "ms");
    result.add("runtime.call_ms_p99", quantile(call_ms, 0.99), "ms");
    result.add("runtime.echo_us_p50", quantile(echo_us, 0.5), "us");
    result.add("runtime.queue_ms_p50", quantile(queue, 0.5), "ms");
    result.add("runtime.queue_ms_p99", quantile(queue, 0.99), "ms");
    result.add("runtime.handler_wait_ms_p50",
               quantile(parent_minus_child(spans_, "cloud_handle", "exec_range"), 0.5), "ms");
    result.add("runtime.shed_share", static_cast<double>(shed_) / traced, "share");
    result.add("runtime.expired_share", static_cast<double>(expired_) / traced, "share");
    result.add("obs.overhead_share",
               quantile(open.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5) - 1.0, "share");
    result.add("setup.train_offline_s", 0.0, "s");
    result.add("harness.send_lag_ms_p99", quantile(lagged.lag_ms, 0.99), "ms");
    result.add("harness.offered_fps", open.offered_fps, "1/s");
    result.add("frame.stage_coverage", 0.0, "share");
    return result;
  }

 private:
  void timed_set_up(std::vector<double>& setup_s) {
    tear_down();
    const auto t0 = Clock::now();
    set_up();
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  void set_up() {
    base_ = nn::make_vgg11(kClasses);
    util::Rng rng(options_.seed * 0x9E3779B97F4A7C15ULL + 0xC10D);
    const data::SynthCifar dataset(32, kClasses, rng.next_u64());
    for (std::size_t i = 0; i < kFramePool; ++i) {
      Reference ref;
      ref.input = dataset
                      .make_batch(static_cast<std::int64_t>(rng.uniform_index(1u << 20)), 1)
                      .images;
      ref.features = base_.forward_range(ref.input, 0, kCut);
      ref.logits = base_.forward_range(ref.features, kCut, base_.size());
      ref.request = tensor::encode_tensor(ref.features);
      refs_.push_back(std::move(ref));
    }
    rng_ = util::Rng(rng.next_u64());
    runtime::GatewayConfig config;
    if (options_.inject == "shed") config.max_queue = 1;
    executor_ = std::make_unique<runtime::CloudExecutor>(
        base_.slice(kCut, base_.size()),
        latency::ComputeLatencyModel(latency::cloud_profile()), config);
    const std::uint16_t port = executor_->start();
    for (int s = 0; s < sessions_; ++s) {
      auto client = std::make_unique<runtime::TcpClient>();
      runtime::TcpClientConfig cc;
      cc.timeout_ms = kLimitMs;
      cc.session_id = static_cast<std::uint64_t>(s) + 1;
      client->connect(port, cc);
      clients_.push_back(std::move(client));
    }
  }

  void tear_down() {
    clients_.clear();
    if (executor_) executor_->stop();
    executor_.reset();
    refs_.clear();
  }

  Outcome call(runtime::TcpClient& client, const Reference& ref) {
    try {
      runtime::Blob response;
      timed("bench.call", [&] { response = client.call(ref.request); });
      std::size_t offset = 0;
      tensor::Tensor logits = tensor::decode_tensor(response, offset);
      if (options_.inject == "corrupt" && !corrupted_.exchange(true))
        logits.at(0) = std::numeric_limits<float>::quiet_NaN();
      return valid_logits(logits, kClasses) && bitwise_equal(logits, ref.logits)
                 ? Outcome::kOk
                 : Outcome::kWrong;
    } catch (const runtime::GatewayBusyError&) {
      return Outcome::kBusy;
    } catch (const std::exception&) {  // TransportError (incl. EXPIRED), codec
      return Outcome::kFailed;
    }
  }

  // Jittered periodic arrivals: request i is due uniformly in the middle half
  // of slot i (slots are 1/rate long), and goes to connection i mod N.
  PhaseStats open_loop(double seconds) {
    util::Rng rng(rng_.next_u64());
    const double period_ms = 1000.0 / kOfferedFps;
    std::vector<double> due;
    std::vector<std::size_t> frame;
    for (double slot = 0.0; slot + period_ms <= seconds * 1000.0; slot += period_ms) {
      due.push_back(slot + period_ms * (0.25 + 0.5 * rng.uniform()));
      frame.push_back(rng.uniform_index(refs_.size()));
    }
    std::vector<PhaseStats> per(clients_.size());
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        PhaseStats& stats = per[c];
        double prev_done = 0.0;
        for (std::size_t i = c; i < due.size(); i += clients_.size()) {
          const auto due_at = start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double, std::milli>(due[i]));
          std::this_thread::sleep_until(due_at);
          const double sent = ms_since(start);
          stats.lag_ms.push_back(sent - std::max(due[i], prev_done));
          const Outcome outcome = call(*clients_[c], refs_[frame[i]]);
          prev_done = ms_since(start);
          stats.count(outcome);
          stats.latency_ms.push_back(outcome == Outcome::kOk
                                         ? prev_done - due[i]
                                         : std::numeric_limits<double>::infinity());
        }
      });
    }
    for (auto& t : threads) t.join();
    PhaseStats total;
    for (const auto& p : per) total.merge(p);
    total.offered_fps = static_cast<double>(due.size()) / seconds;
    return total;
  }

  PhaseStats saturate(double seconds) {
    std::vector<PhaseStats> per(clients_.size());
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        util::Rng rng(options_.seed * 31 + c);
        while (ms_since(start) < seconds * 1000.0) {
          const Outcome outcome = call(*clients_[c], refs_[rng.uniform_index(refs_.size())]);
          per[c].count(outcome);
          if (outcome == Outcome::kOk) per[c].done_ms.push_back(ms_since(start));
          if (outcome == Outcome::kBusy)  // fall back, as an edge session would
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    for (auto& t : threads) t.join();
    PhaseStats total;
    for (const auto& p : per) total.merge(p);
    std::sort(total.done_ms.begin(), total.done_ms.end());
    return total;
  }

  // Client round trips through a Gateway whose handler echoes the request:
  // the serving path without the model.
  std::vector<double> echo(double seconds) {
    runtime::Gateway gateway([](const runtime::GatewayRequest& r) { return r.payload; });
    const std::uint16_t port = gateway.start();
    std::vector<std::vector<double>> per(clients_.size());
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        runtime::TcpClient client;
        runtime::TcpClientConfig cc;
        cc.timeout_ms = kLimitMs;
        cc.session_id = c + 1;
        client.connect(port, cc);
        while (ms_since(start) < seconds * 1000.0) {
          const auto t0 = Clock::now();
          try {
            client.call(refs_[0].request);
            per[c].push_back(1000.0 * ms_since(t0));
          } catch (const std::exception&) {
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    gateway.stop();
    std::vector<double> all;
    for (const auto& p : per) all.insert(all.end(), p.begin(), p.end());
    return all;
  }

  // Moves the traced spans and counters out of the registry, so no phase
  // runs into its span-retention cap.
  void collect() {
    auto& reg = obs::MetricsRegistry::global();
    const auto spans = reg.spans();
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    gemm_flops_ += reg.counter("cadmc.kernel.gemm_flops").value();
    arena_grows_ += reg.counter("cadmc.kernel.arena.grows").value();
    shed_ += reg.counter("cadmc.gateway.shed").value();
    expired_ += reg.counter("cadmc.gateway.expired").value();
    reg.reset();
  }

  void check_lag(const PhaseStats& open) const {
    const double limit = kMaxLagShare * 1000.0 / kOfferedFps;
    const double lag = sum(open.lag_ms) / static_cast<double>(open.lag_ms.size());
    if (lag > limit) {
      char message[160];
      std::snprintf(message, sizeof message,
                    "mean open-loop send lag %.3f ms exceeds %.3f ms (%.2f of the "
                    "inter-arrival time)",
                    lag, limit, kMaxLagShare);
      throw InvalidRun(message);
    }
  }

  static void tally(Result& result, std::initializer_list<PhaseStats> phases) {
    for (const PhaseStats& p : phases) {
      result.attempted += p.attempted;
      result.failed += p.failed;
      if (p.wrong > 0) result.correct = false;
    }
  }

  const Options& options_;
  const int sessions_;
  nn::Model base_;
  std::vector<Reference> refs_;
  util::Rng rng_;
  std::unique_ptr<runtime::CloudExecutor> executor_;
  std::vector<std::unique_ptr<runtime::TcpClient>> clients_;
  std::atomic<bool> corrupted_{false};
  std::vector<obs::SpanRecord> spans_;
  std::int64_t gemm_flops_ = 0, arena_grows_ = 0, shed_ = 0, expired_ = 0;
};

}  // namespace

Result run_cloud_conv_suffix(const Options& options) {
  return CloudConvSuffixBench(options).run();
}

}  // namespace perfbench
