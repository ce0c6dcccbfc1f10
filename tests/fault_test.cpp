// Robustness suite (`ctest -L robust`): fault injection, deadline/retry
// transport, and edge-only graceful degradation. Covers the wire format
// (little-endian header, CRC32 rejection), client deadlines + bounded retry
// with reconnect, deterministic fault schedules, the circuit breaker, the
// blackout-aware shaper/estimator, and the acceptance scenario: kill the
// cloud executor mid-run and every remaining inference still returns correct
// logits via the edge-only fallback.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "latency/device_profile.h"
#include "nn/factory.h"
#include "obs/metrics.h"
#include "runtime/decision_engine.h"
#include "runtime/emulator.h"
#include "runtime/fault.h"
#include "runtime/field.h"
#include "runtime/gateway.h"
#include "runtime/shaper.h"
#include "runtime/transport.h"

namespace cadmc::runtime {
namespace {

using compress::TechniqueId;
using engine::Strategy;

/// RAII: enable metrics collection and clear the global registry, so a test
/// can assert on fault counters without leaking into other tests.
class ScopedMetrics {
 public:
  ScopedMetrics() {
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  ~ScopedMetrics() { obs::set_enabled(false); }
  static std::int64_t count(const std::string& name) {
    return obs::MetricsRegistry::global().counter(name).value();
  }
};

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.byte_size()) == 0;
}

/// Loopback socket pair for exercising the frame codec without a server.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(Crc32, KnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Framing, HeaderIsLittleEndianOnTheWire) {
  SocketPair sp;
  const Blob payload{0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  ASSERT_TRUE(write_frame(sp.fds[0], payload));
  std::uint8_t raw[kFrameHeaderBytes + 5];
  ASSERT_EQ(::recv(sp.fds[1], raw, sizeof(raw), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(raw)));
  // Length 5 as u64 LE: low byte first.
  EXPECT_EQ(raw[0], 5u);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(raw[i], 0u) << "length byte " << i;
  // CRC as u32 LE.
  const std::uint32_t expected_crc = crc32(payload.data(), payload.size());
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(raw[8 + i], (expected_crc >> (8 * i)) & 0xFF) << "crc byte " << i;
  EXPECT_EQ(std::memcmp(raw + kFrameHeaderBytes, payload.data(), payload.size()),
            0);
}

TEST(Framing, RoundTrip) {
  SocketPair sp;
  Blob payload(100'000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131);
  ASSERT_TRUE(write_frame(sp.fds[0], payload));
  Blob back;
  ASSERT_TRUE(read_frame(sp.fds[1], back));
  EXPECT_EQ(back, payload);
}

TEST(Framing, CorruptPayloadRejectedByChecksum) {
  ScopedMetrics metrics;
  SocketPair sp;
  const Blob payload{1, 2, 3, 4, 5, 6, 7, 8};
  // Capture a valid frame, flip one payload byte, replay it.
  ASSERT_TRUE(write_frame(sp.fds[0], payload));
  std::uint8_t raw[kFrameHeaderBytes + 8];
  ASSERT_EQ(::recv(sp.fds[1], raw, sizeof(raw), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(raw)));
  raw[kFrameHeaderBytes + 3] ^= 0x01;
  ASSERT_EQ(::send(sp.fds[0], raw, sizeof(raw), 0),
            static_cast<ssize_t>(sizeof(raw)));
  Blob back;
  EXPECT_FALSE(read_frame(sp.fds[1], back));
  EXPECT_EQ(ScopedMetrics::count("cadmc.runtime.fault.corrupt_rejected"), 1);
}

TEST(Framing, ShortReadRejected) {
  SocketPair sp;
  // Header promises 100 bytes but the stream ends after 3.
  const Blob payload{9, 9, 9};
  Blob frame(kFrameHeaderBytes);
  frame[0] = 100;
  frame.insert(frame.end(), payload.begin(), payload.end());
  ASSERT_EQ(::send(sp.fds[0], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  ::shutdown(sp.fds[0], SHUT_WR);
  Blob back;
  EXPECT_FALSE(read_frame(sp.fds[1], back));
}

TEST(Transport, DeadlineFiresInsteadOfHanging) {
  Gateway server([](const GatewayRequest& r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return r.payload;
  });
  const std::uint16_t port = server.start();
  TcpClient client;
  TcpClientConfig config;
  config.timeout_ms = 50.0;
  client.connect(port, config);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(client.call({1, 2, 3}), TransportError);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_LT(waited_ms, 280.0);  // gave up at the deadline, not the handler
  client.close();
  server.stop();
}

TEST(Transport, RetryRecoversFromDroppedFrame) {
  ScopedMetrics metrics;
  Gateway server([](const GatewayRequest& r) { return r.payload; });
  const std::uint16_t port = server.start();

  FaultPlan plan;
  plan.frame_schedule = {FrameFault::kDrop};  // lose exactly the first frame
  FaultInjector injector(plan);

  TcpClient client;
  TcpClientConfig config;
  config.timeout_ms = 100.0;
  config.max_retries = 2;
  config.backoff_ms = 1.0;
  client.connect(port, config);
  client.set_fault_injector(&injector);

  const Blob msg{7, 7, 7};
  EXPECT_EQ(client.call(msg), msg);
  EXPECT_GE(ScopedMetrics::count("cadmc.runtime.fault.retries"), 1);
  EXPECT_GE(ScopedMetrics::count("cadmc.runtime.fault.call_timeouts"), 1);
  client.close();
  server.stop();
}

TEST(Transport, RetryRecoversFromCorruptAndTruncatedFrames) {
  ScopedMetrics metrics;
  Gateway server([](const GatewayRequest& r) { return r.payload; });
  const std::uint16_t port = server.start();

  FaultPlan plan;
  plan.frame_schedule = {FrameFault::kCorrupt, FrameFault::kNone,
                         FrameFault::kTruncate};
  FaultInjector injector(plan);

  TcpClient client;
  TcpClientConfig config;
  config.timeout_ms = 200.0;
  config.max_retries = 2;
  config.backoff_ms = 1.0;
  client.connect(port, config);
  client.set_fault_injector(&injector);

  const Blob msg{1, 2, 3, 4};
  // Call 1: corrupt frame -> server rejects on CRC and drops the connection;
  // the client reconnects and the retry succeeds.
  EXPECT_EQ(client.call(msg), msg);
  EXPECT_GE(ScopedMetrics::count("cadmc.runtime.fault.corrupt_rejected"), 1);
  EXPECT_GE(ScopedMetrics::count("cadmc.runtime.fault.reconnects"), 1);
  // Call 2: truncated frame -> client reports the send failed and retries.
  EXPECT_EQ(client.call(msg), msg);
  client.close();
  server.stop();
}

TEST(Transport, ExhaustedRetriesThrowTransportError) {
  FaultPlan plan;
  plan.frame_schedule = {FrameFault::kDrop, FrameFault::kDrop,
                         FrameFault::kDrop};
  FaultInjector injector(plan);
  Gateway server([](const GatewayRequest& r) { return r.payload; });
  const std::uint16_t port = server.start();
  TcpClient client;
  TcpClientConfig config;
  config.timeout_ms = 30.0;
  config.max_retries = 2;
  config.backoff_ms = 1.0;
  client.connect(port, config);
  client.set_fault_injector(&injector);
  EXPECT_THROW(client.call({5}), TransportError);
  client.close();
  server.stop();
}

TEST(FaultInjector, DeterministicForSeed) {
  FaultPlan plan;
  plan.frame_drop_prob = 0.2;
  plan.frame_corrupt_prob = 0.1;
  plan.cloud_crash_prob = 0.1;
  plan.straggler_prob = 0.3;
  plan.outage_rate_per_s = 0.5;
  plan.seed = 1234;
  FaultInjector a(plan), b(plan);
  const net::BandwidthTrace trace(100.0, std::vector<double>(300, 50.0));
  EXPECT_EQ(a.degrade_trace(trace).samples(), b.degrade_trace(trace).samples());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.next_frame_fault(), b.next_frame_fault());
    EXPECT_EQ(a.next_cloud_crash(), b.next_cloud_crash());
    EXPECT_DOUBLE_EQ(a.next_straggler_factor(), b.next_straggler_factor());
  }
}

TEST(FaultInjector, DegradeTraceZeroesExplicitWindows) {
  FaultPlan plan;
  plan.blackouts = {{200.0, 250.0}};
  FaultInjector injector(plan);
  const net::BandwidthTrace trace(100.0, std::vector<double>(10, 80.0));
  const net::BandwidthTrace degraded = injector.degrade_trace(trace);
  // Window [200, 450) covers sample indices 2..4 (ceil(450/100) = 5).
  const std::vector<double>& s = degraded.samples();
  EXPECT_EQ(s[1], 80.0);
  EXPECT_EQ(s[2], 0.0);
  EXPECT_EQ(s[3], 0.0);
  EXPECT_EQ(s[4], 0.0);
  EXPECT_EQ(s[5], 80.0);
}

TEST(FaultInjector, OutageRateProducesBlackouts) {
  FaultPlan plan;
  plan.outage_rate_per_s = 2.0;
  plan.outage_mean_ms = 400.0;
  FaultInjector injector(plan);
  const net::BandwidthTrace trace(100.0, std::vector<double>(600, 50.0));
  const net::BandwidthTrace degraded = injector.degrade_trace(trace);
  int dead = 0;
  for (double s : degraded.samples()) dead += s == 0.0;
  EXPECT_GT(dead, 0);
  EXPECT_LT(dead, 600);  // not the whole trace
}

TEST(FaultInjector, StragglerFactorsAlwaysInflate) {
  FaultPlan plan;
  plan.straggler_prob = 1.0;
  FaultInjector injector(plan);
  for (int i = 0; i < 100; ++i) EXPECT_GE(injector.next_straggler_factor(), 1.0);
}

TEST(FaultInjector, RejectsInvalidPlans) {
  FaultPlan bad;
  bad.frame_drop_prob = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
  FaultPlan sum;
  sum.frame_drop_prob = 0.6;
  sum.frame_corrupt_prob = 0.6;
  EXPECT_THROW(FaultInjector{sum}, std::invalid_argument);
  FaultPlan rate;
  rate.outage_rate_per_s = -1.0;
  EXPECT_THROW(FaultInjector{rate}, std::invalid_argument);
}

TEST(CircuitBreakerTest, OpensProbesAndCloses) {
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.probe_interval = 3;
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow_request());

  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // While open: every probe_interval-th request is a probe.
  EXPECT_FALSE(breaker.allow_request());
  EXPECT_FALSE(breaker.allow_request());
  EXPECT_TRUE(breaker.allow_request());  // probe
  EXPECT_FALSE(breaker.allow_request());

  // A failed probe keeps it open; a successful one closes it.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_TRUE(breaker.allow_request());
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(ShaperFault, BlackoutWindowDelaysButFinite) {
  // 1 s good, 1 s dead, then good again: a transfer launched just before the
  // blackout waits it out and lands after recovery.
  std::vector<double> samples(10, 100.0);
  samples.resize(20, 0.0);
  samples.resize(30, 100.0);
  net::BandwidthTrace trace(100.0, samples);
  const double clear = shaped_transfer_ms(trace, 0.0, 20'000, 0.0, 0.0);
  const double through = shaped_transfer_ms(trace, 900.0, 20'000, 0.0, 0.0);
  EXPECT_TRUE(std::isfinite(through));
  EXPECT_GT(through, clear + 900.0);  // paid (at least) the blackout
}

TEST(ShaperFault, DeadTailReturnsInfinityFast) {
  // Trace ends in a blackout: the payload can never finish. This must be a
  // quick +inf, not a multi-million-iteration crawl or a throw.
  net::BandwidthTrace trace(100.0, {500.0, 0.0});
  const auto t0 = std::chrono::steady_clock::now();
  const double ms = shaped_transfer_ms(trace, 150.0, 10'000'000, 5.0);
  const double elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_TRUE(std::isinf(ms));
  EXPECT_LT(elapsed, 100.0);
}

TEST(ShaperFault, PostTraceTailStillPricedWhenAlive) {
  net::BandwidthTrace trace(100.0, {0.0, 200.0});
  const double ms = shaped_transfer_ms(trace, 150.0, 1'000'000, 0.0, 0.0);
  EXPECT_TRUE(std::isfinite(ms));
  EXPECT_NEAR(ms, 1'000'000 / 200.0, 1.0);
}

TEST(EstimatorFault, FlooredDuringBlackout) {
  net::BandwidthTrace trace(100.0, std::vector<double>(50, 0.0));
  net::BandwidthEstimator estimator(trace, 0.0, 0.6);
  for (double t = 0.0; t < 5000.0; t += 500.0)
    EXPECT_GE(estimator.estimate_at(t), net::BandwidthEstimator::kMinBandwidth);
}

/// The acceptance scenario: kill the cloud executor mid-run. Every remaining
/// inference must still return the correct logits (edge-only fallback), the
/// breaker must open, and after a restart a probe must close it again.
TEST(FieldSessionFault, SurvivesCloudKillAndRecovers) {
  ScopedMetrics scoped;
  obs::MetricsRegistry registry;

  nn::Model base = nn::make_tiny_cnn(4, 8, 50);
  Strategy s;
  s.cut = 3;
  s.plan.assign(base.size(), TechniqueId::kNone);
  util::Rng rng(51);
  compress::TechniqueRegistry techniques;
  engine::RealizedStrategy realized =
      engine::realize_strategy(base, s, techniques, rng);

  FieldFaultConfig faults;
  faults.cloud_deadline_ms = 200.0;
  faults.max_retries = 0;
  faults.breaker.failure_threshold = 2;
  faults.breaker.probe_interval = 3;
  faults.metrics = &registry;

  net::BandwidthTrace trace(100.0, std::vector<double>(100, 500.0));
  CloudExecutor cloud(realized.model.slice(realized.cut, realized.model.size()),
                      latency::ComputeLatencyModel(latency::cloud_profile()));
  cloud.start();
  FieldSession session(realized, &cloud,
                       latency::ComputeLatencyModel(latency::phone_profile()),
                       trace, 10.0, /*time_scale=*/0.0, faults);
  ASSERT_TRUE(session.offloads());

  util::Rng data_rng(52);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, data_rng, 0.3f);
  const auto expected = base.forward(x);

  const FieldOutcome healthy = session.infer(x, 0.0);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_LT(tensor::Tensor::max_abs_diff(healthy.logits, expected), 1e-5f);

  session.kill_cloud();
  int degraded = 0;
  std::vector<double> totals;
  for (int i = 0; i < 8; ++i) {
    const FieldOutcome outcome = session.infer(x, 100.0 * i);
    // No hang, no throw, and the logits still match local execution.
    EXPECT_LT(tensor::Tensor::max_abs_diff(outcome.logits, expected), 1e-5f);
    // The fallback runs the executor's own suffix weights, so it answers
    // exactly what the gateway answered before the kill.
    EXPECT_TRUE(bitwise_equal(outcome.logits, healthy.logits));
    degraded += outcome.degraded;
    totals.push_back(outcome.total_ms());
  }
  // Degraded frames carry their modelled time, as served ones do.
  std::vector<double> modelled;
  for (const obs::SpanRecord& span : registry.spans())
    if (span.name == "field_frame") modelled.push_back(span.modelled_ms);
  ASSERT_EQ(modelled.size(), 1 + totals.size());
  for (std::size_t i = 0; i < totals.size(); ++i)
    EXPECT_EQ(modelled[1 + i], totals[i]) << "post-kill frame " << i;
  EXPECT_EQ(degraded, 8);  // 100% of post-kill inferences served by the edge
  EXPECT_EQ(session.breaker_state(), CircuitBreaker::State::kOpen);
  EXPECT_GE(registry.counter("cadmc.runtime.fault.edge_fallbacks").value(), 8);
  EXPECT_GE(registry.counter("cadmc.runtime.fault.deadline_misses").value(), 2);
  EXPECT_EQ(registry.counter("cadmc.runtime.fault.breaker_opens").value(), 1);

  session.restart_cloud();
  EXPECT_EQ(registry.counter("cadmc.runtime.fault.cloud_restarts").value(), 1);
  // The breaker is still open; within probe_interval inferences a probe goes
  // through, succeeds, and closes it.
  FieldOutcome last;
  for (int i = 0; i < faults.breaker.probe_interval; ++i)
    last = session.infer(x, 1000.0 + 100.0 * i);
  EXPECT_EQ(session.breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_GE(registry.counter("cadmc.runtime.fault.breaker_closes").value(), 1);
  const FieldOutcome recovered = session.infer(x, 2000.0);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_LT(tensor::Tensor::max_abs_diff(recovered.logits, expected), 1e-5f);
}

TEST(FieldSessionFault, DeadLinkFallsBackWithoutNetwork) {
  nn::Model base = nn::make_tiny_cnn(4, 8, 53);
  Strategy s;
  s.cut = 3;
  s.plan.assign(base.size(), TechniqueId::kNone);
  util::Rng rng(54);
  compress::TechniqueRegistry techniques;
  engine::RealizedStrategy realized =
      engine::realize_strategy(base, s, techniques, rng);

  // The trace dies at 1 s and never recovers: any transfer started after
  // that would never complete, so the session must degrade, not hang.
  std::vector<double> samples(10, 500.0);
  samples.resize(20, 0.0);
  net::BandwidthTrace trace(100.0, samples);
  FieldFaultConfig faults;
  faults.cloud_deadline_ms = 100.0;
  CloudExecutor cloud(realized.model.slice(realized.cut, realized.model.size()),
                      latency::ComputeLatencyModel(latency::cloud_profile()));
  cloud.start();
  FieldSession session(realized, &cloud,
                       latency::ComputeLatencyModel(latency::phone_profile()),
                       trace, 10.0, 0.0, faults);
  util::Rng data_rng(55);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, data_rng, 0.3f);
  const FieldOutcome outcome = session.infer(x, 1500.0);
  EXPECT_TRUE(outcome.degraded);
  EXPECT_LT(tensor::Tensor::max_abs_diff(outcome.logits, base.forward(x)),
            1e-5f);
}

class RunnerFaultFixture : public ::testing::Test {
 protected:
  RunnerFaultFixture()
      : base_(nn::make_alexnet()),
        boundaries_(nn::block_boundaries(base_, 3)),
        evaluator_(base_, make_pe(),
                   engine::AccuracyModel(0.8404, base_.size(), 41),
                   engine::RewardConfig{}) {}

  static partition::PartitionEvaluator make_pe() {
    latency::TransferModel transfer;
    transfer.rtt_ms = 15.0;
    return partition::PartitionEvaluator(
        latency::ComputeLatencyModel(latency::phone_profile()),
        latency::ComputeLatencyModel(latency::cloud_profile()), transfer);
  }

  net::BandwidthTrace make_trace(double mean_mbps = 8.0) const {
    net::TraceGeneratorParams params;
    params.mean_mbps = mean_mbps;
    params.volatility = 0.3;
    return net::generate_trace(params, 30'000.0, 42);
  }

  nn::Model base_;
  std::vector<std::size_t> boundaries_;
  engine::StrategyEvaluator evaluator_;
};

TEST_F(RunnerFaultFixture, TightDeadlineFallsBackAndStaysAvailable) {
  // Bandwidth good enough that surgery offloads, deadline too tight for any
  // cloud leg to meet: every offload misses, the breaker opens, and with the
  // fallback enabled every inference is still served (availability 1).
  RunnerConfig config;
  config.inferences = 12;
  config.cloud_deadline_ms = 1.0;
  config.edge_fallback = true;
  InferenceRunner runner(evaluator_, make_trace(), boundaries_, config);
  const RunStats stats = runner.run_surgery();
  EXPECT_EQ(stats.inferences, 12);
  EXPECT_GT(stats.deadline_misses, 0);
  EXPECT_GT(stats.edge_fallbacks, 0);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
  EXPECT_GE(stats.p99_latency_ms, stats.mean_latency_ms);
}

TEST_F(RunnerFaultFixture, FallbackDisabledDropsAvailability) {
  RunnerConfig config;
  config.inferences = 12;
  config.cloud_deadline_ms = 1.0;
  config.edge_fallback = false;
  InferenceRunner runner(evaluator_, make_trace(), boundaries_, config);
  const RunStats stats = runner.run_surgery();
  EXPECT_GT(stats.failures, 0);
  EXPECT_LT(stats.availability, 1.0);
  EXPECT_EQ(stats.edge_fallbacks, 0);
}

TEST_F(RunnerFaultFixture, GenerousDeadlineMatchesLegacyBehaviour) {
  RunnerConfig legacy;
  legacy.inferences = 8;
  RunnerConfig guarded = legacy;
  guarded.cloud_deadline_ms = 60'000.0;
  const auto trace = make_trace(2.0);
  const RunStats a =
      InferenceRunner(evaluator_, trace, boundaries_, legacy).run_surgery();
  const RunStats b =
      InferenceRunner(evaluator_, trace, boundaries_, guarded).run_surgery();
  EXPECT_DOUBLE_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(b.deadline_misses, 0);
  EXPECT_DOUBLE_EQ(b.availability, 1.0);
}

TEST_F(RunnerFaultFixture, StragglersInflateLatency) {
  FaultPlan plan;
  plan.straggler_prob = 1.0;
  plan.straggler_sigma = 0.8;
  FaultInjector injector(plan);
  RunnerConfig config;
  config.inferences = 8;
  RunnerConfig chaos = config;
  chaos.injector = &injector;
  const auto trace = make_trace(2.0);
  const RunStats clean =
      InferenceRunner(evaluator_, trace, boundaries_, config).run_surgery();
  const RunStats slow =
      InferenceRunner(evaluator_, trace, boundaries_, chaos).run_surgery();
  EXPECT_GT(slow.mean_latency_ms, clean.mean_latency_ms);
}

TEST_F(RunnerFaultFixture, BlackoutTraceWithFallbackStaysAvailable) {
  // Splice sampled outages into the trace; in field mode the shaped transfer
  // rides through (or dies in) them. The fallback keeps availability at 1.
  FaultPlan plan;
  plan.outage_rate_per_s = 0.15;
  plan.outage_mean_ms = 1'500.0;
  FaultInjector injector(plan);
  const auto trace = injector.degrade_trace(make_trace());
  RunnerConfig config;
  config.mode = TimingMode::kField;
  config.inferences = 12;
  config.cloud_deadline_ms = 400.0;
  const RunStats stats =
      InferenceRunner(evaluator_, trace, boundaries_, config).run_surgery();
  EXPECT_DOUBLE_EQ(stats.availability, 1.0);
  EXPECT_EQ(stats.failures, 0);
  // No inference hung on a dead link: an unserved +inf transfer would have
  // propagated into the mean.
  EXPECT_TRUE(std::isfinite(stats.mean_latency_ms));
  EXPECT_TRUE(std::isfinite(stats.p99_latency_ms));

  // With no deadline, an emulated transfer into a blackout can never
  // finish: it is a miss followed by the edge fallback, not +inf latency.
  RunnerConfig unbounded;
  unbounded.mode = TimingMode::kEstimated;
  unbounded.inferences = 12;
  Strategy first_block;
  first_block.plan.assign(base_.size(), TechniqueId::kNone);
  first_block.cut = boundaries_.front();
  const RunStats blackout = InferenceRunner(evaluator_, trace, boundaries_,
                                            unbounded)
                                .run_branch(first_block);
  EXPECT_GT(blackout.deadline_misses, 0);
  EXPECT_GE(blackout.edge_fallbacks, blackout.deadline_misses);
  EXPECT_DOUBLE_EQ(blackout.availability, 1.0);
  EXPECT_TRUE(std::isfinite(blackout.mean_latency_ms));
  EXPECT_TRUE(std::isfinite(blackout.p99_latency_ms));
}

TEST(DecisionEngineFault, OpenBreakerForcesAllEdgeInference) {
  EngineConfig config;
  config.edge_device = "phone";
  // Fat, calm, low-RTT link so the trained tree genuinely offloads; the
  // breaker is then the only thing standing between the data and the cloud.
  config.scene = net::scene_by_name("WiFi outdoor slow");
  config.scene.trace.mean_mbps = 40.0;
  config.scene.trace.volatility = 0.05;
  config.scene.rtt_ms = 4.0;
  config.base_accuracy = 0.84;
  config.num_blocks = 3;
  config.trace_duration_ms = 20'000.0;
  config.tree_config.episodes = 8;
  config.tree_config.branch_config.episodes = 15;
  config.breaker.failure_threshold = 2;
  config.breaker.probe_interval = 100;  // no probe inside this test
  DecisionEngine engine(nn::make_alexnet(), std::move(config));
  engine.train_offline();

  data::SynthCifar dataset(32, 10, 60);
  const auto batch = dataset.make_batch(0, 1);

  const auto healthy = engine.infer(batch.images, 5'000.0);
  ASSERT_LT(healthy.strategy.cut, engine.base().size())
      << "precondition: on a fat link the engine offloads";
  EXPECT_FALSE(healthy.degraded);

  engine.breaker().record_failure();
  engine.breaker().record_failure();
  ASSERT_EQ(engine.breaker().state(), CircuitBreaker::State::kOpen);

  // With the breaker open every inference must resolve all-edge: logits are
  // still produced and no cut leaves data waiting on the dead cloud.
  for (int i = 0; i < 2; ++i) {
    const auto outcome = engine.infer(batch.images, 5'000.0 + 1'000.0 * i);
    EXPECT_EQ(outcome.logits.shape(), (tensor::Shape{1, 10}));
    EXPECT_EQ(outcome.strategy.cut, engine.base().size());
    EXPECT_TRUE(outcome.degraded);
  }
}

TEST(DecisionEngineFault, OpenBreakerRunsRealizedPrefixThenBaseSuffix) {
  // VGG11 on "4G outdoor quick" with this budget trains a tree whose forks
  // offload both an uncompressed plan (cut 0) and a C1-compressed one, so
  // with the breaker open both kinds of plan degrade to a local run.
  EngineConfig config;
  config.scene = net::scene_by_name("4G outdoor quick");
  config.tree_config.episodes = 1;
  config.tree_config.branch_config.episodes = 80;
  config.breaker.failure_threshold = 1;
  config.breaker.probe_interval = 1000;  // no probe inside this test
  DecisionEngine engine(nn::make_vgg11(10), std::move(config));
  engine.train_offline();
  engine.breaker().record_failure();
  ASSERT_EQ(engine.breaker().state(), CircuitBreaker::State::kOpen);

  data::SynthCifar dataset(32, 10, 61);
  const auto x = dataset.make_batch(0, 1).images;
  const compress::TechniqueRegistry faithful;
  bool saw_plain = false, saw_compressed = false;
  for (double t_ms = 500.0; t_ms < engine.trace().duration_ms() &&
                            !(saw_plain && saw_compressed);
       t_ms += 750.0) {
    const auto outcome = engine.infer(x, t_ms);
    if (!outcome.degraded) continue;
    EXPECT_EQ(outcome.strategy.cut, engine.base().size());
    const Strategy composed =
        engine.tree().strategy_for_path(outcome.forks).strategy;
    const bool compressed =
        std::any_of(composed.plan.begin(), composed.plan.end(),
                    [](TechniqueId id) { return id != TechniqueId::kNone; });
    if (compressed ? saw_compressed : saw_plain) continue;
    (compressed ? saw_compressed : saw_plain) = true;
    if (!compressed) {
      EXPECT_TRUE(bitwise_equal(outcome.logits, engine.base().forward(x)));
      continue;
    }
    // The realized prefix under the path's seed, then the base suffix: the
    // same bits as realizing the plan with the cut moved to the end.
    Strategy all_edge = composed;
    all_edge.cut = engine.base().size();
    util::Rng rng(tree::RealizedTree::path_seed(composed));
    const engine::RealizedStrategy oracle =
        engine::realize_strategy(engine.base(), all_edge, faithful, rng);
    EXPECT_TRUE(bitwise_equal(outcome.logits, oracle.model.forward(x)));
  }
  EXPECT_TRUE(saw_plain) << "no uncompressed plan was degraded";
  EXPECT_TRUE(saw_compressed) << "no compressed plan was degraded";
}

}  // namespace
}  // namespace cadmc::runtime
