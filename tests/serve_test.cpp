// Concurrent-serving suite (`ctest -L serve`): the gateway's
// degrade-don't-fail contract under hostile input, overload, deadline
// pressure, retry races, and full chaos. CI runs this label under
// ASan/UBSan and TSan.
//
//  * Frame-parser fuzz: seeded random truncations, bit flips, oversized
//    length fields and garbage sections through parse_frame/read_frame —
//    never over-reads, never throws, rejects or degrades.
//  * Overload: bounded admission queue, typed BUSY shedding, every request
//    answered (silent hangs are the one forbidden outcome).
//  * Deadline propagation: queued work whose budget died is answered
//    EXPIRED, not executed.
//  * Duplicate-execution regression: a retry racing the still-executing
//    original (provoked by a server-side straggler) executes the handler
//    exactly once.
//  * Shared model: one `const` model serves concurrent threads and gateway
//    sessions bitwise like a serial forward; a FieldSession refuses a shared
//    executor that serves any other suffix.
//  * Chaos soak: 32 FieldSessions share one gateway through kill/restart,
//    straggler and frame-corruption injection — zero hangs (watchdog),
//    zero crashes, every inference returns correct logits.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/strategy.h"
#include "latency/device_profile.h"
#include "nn/factory.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "runtime/executor.h"
#include "runtime/fault.h"
#include "runtime/field.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"

namespace cadmc::runtime {
namespace {

using compress::TechniqueId;
using engine::Strategy;

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

/// Blocking loopback socket to a gateway port — lets a test pipeline many
/// frames on one connection, which TcpClient (strictly call/response)
/// cannot do.
struct RawClient {
  int fd = -1;
  explicit RawClient(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
};

Blob blob_of(std::initializer_list<std::uint8_t> bytes) { return Blob(bytes); }

// ---------------------------------------------------------------------------
// Frame parser under hostile input
// ---------------------------------------------------------------------------

TEST(ParserFuzz, TruncationsAtEveryBoundaryNeedMoreNeverOverread) {
  const Blob payload = blob_of({1, 2, 3, 4, 5, 6, 7});
  const Blob frame = encode_frame(payload, TraceContext{7, 8, 9.0},
                                  FrameMeta{11, 12, 13.0, FrameKind::kRequest});
  // Every strict prefix must come back kNeedMore with nothing consumed.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    // A fresh heap copy of exactly `len` bytes: one byte past the end is
    // unmapped-or-poisoned, so an over-read is an ASan stop, not luck.
    std::vector<std::uint8_t> prefix(frame.begin(), frame.begin() + len);
    Blob out;
    TraceContext trace;
    FrameMeta meta;
    std::size_t consumed = 7777;
    EXPECT_EQ(parse_frame(prefix.data(), prefix.size(), &consumed, out, &trace,
                          &meta),
              ParseResult::kNeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
  Blob out;
  TraceContext trace;
  FrameMeta meta;
  std::size_t consumed = 0;
  ASSERT_EQ(parse_frame(frame.data(), frame.size(), &consumed, out, &trace,
                        &meta),
            ParseResult::kFrame);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(trace.trace_id, 7u);
  EXPECT_EQ(meta.session_id, 11u);
  EXPECT_EQ(meta.sequence, 12u);
  EXPECT_DOUBLE_EQ(meta.deadline_ms, 13.0);
}

TEST(ParserFuzz, SeededBitFlipsNeverThrowAndNeverCorruptSilently) {
  util::Rng rng(20260808);
  int rejected = 0, degraded = 0, intact = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    Blob payload(static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const TraceContext trace{rng.next_u64() | 1, rng.next_u64(), 5.0};
    const FrameMeta meta{rng.next_u64() | 1, rng.next_u64() | 1, 25.0,
                         FrameKind::kRequest};
    Blob frame = encode_frame(payload, trace, meta);
    // 1..4 random bit flips anywhere in the frame.
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int f = 0; f < flips; ++f)
      frame[rng.uniform_index(frame.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));

    Blob out;
    TraceContext got_trace;
    FrameMeta got_meta;
    std::size_t consumed = 0;
    const ParseResult result = parse_frame(frame.data(), frame.size(),
                                           &consumed, out, &got_trace,
                                           &got_meta);
    switch (result) {
      case ParseResult::kBad:
        ++rejected;  // poisoned length or payload CRC — connection dropped
        break;
      case ParseResult::kNeedMore:
        // A flip in the length field that *grew* it looks like an
        // incomplete frame; a real stream would then hit the max_payload
        // cap or the payload CRC. Never a crash, never silent corruption.
        EXPECT_EQ(consumed, 0u);
        ++rejected;
        break;
      case ParseResult::kFrame: {
        // The payload survived its CRC, so the flips hit header sections.
        // Each section either decoded intact or degraded to its zero value
        // — a half-corrupt section must never leak through.
        EXPECT_EQ(out, payload);
        const bool trace_intact = got_trace.trace_id == trace.trace_id &&
                                  got_trace.span_id == trace.span_id;
        const bool trace_zero = got_trace.trace_id == 0 &&
                                got_trace.span_id == 0;
        EXPECT_TRUE(trace_intact || trace_zero);
        const bool meta_intact = got_meta.session_id == meta.session_id &&
                                 got_meta.sequence == meta.sequence;
        const bool meta_zero = got_meta.session_id == 0 &&
                               got_meta.sequence == 0;
        EXPECT_TRUE(meta_intact || meta_zero);
        (trace_intact && meta_intact) ? ++intact : ++degraded;
        break;
      }
    }
  }
  // The seed is fixed, so the mix is stable: both survivable outcomes
  // occur, and "intact" never does — every bit of the frame sits under one
  // of the three CRCs, so a flip is always either rejected or degraded.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_EQ(intact, 0);
}

TEST(ParserFuzz, OversizedLengthFieldIsRejectedNotAllocated) {
  Blob frame = encode_frame(blob_of({1, 2, 3}));
  // Forge a length field claiming ~2^63 bytes; a parser that trusted it
  // would try to allocate it.
  for (std::size_t i = 0; i < 8; ++i) frame[i] = 0xFF;
  frame[7] = 0x7F;
  Blob out;
  std::size_t consumed = 0;
  EXPECT_EQ(parse_frame(frame.data(), frame.size(), &consumed, out),
            ParseResult::kBad);
  // And a length just over the configured cap is equally bad.
  EXPECT_EQ(parse_frame(frame.data(), frame.size(), &consumed, out, nullptr,
                        nullptr, /*max_payload=*/16),
            ParseResult::kBad);
}

TEST(ParserFuzz, GarbageStreamsNeverThrow) {
  util::Rng rng(77);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 160)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    Blob out;
    std::size_t consumed = 0;
    const ParseResult result =
        parse_frame(junk.data(), junk.size(), &consumed, out, nullptr, nullptr,
                    /*max_payload=*/1 << 20);
    if (result == ParseResult::kFrame)
      EXPECT_LE(consumed, junk.size());  // never claims bytes it wasn't given
    else
      EXPECT_EQ(consumed, 0u);
  }
}

TEST(ParserFuzz, ReadFrameOnTruncatedSocketStreamFailsCleanly) {
  util::Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Blob payload(static_cast<std::size_t>(rng.uniform_int(1, 64)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    Blob frame = encode_frame(payload);
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
    ASSERT_EQ(::send(fds[0], frame.data(), cut, 0), static_cast<ssize_t>(cut));
    ::close(fds[0]);  // peer dies mid-frame
    Blob out;
    EXPECT_FALSE(read_frame(fds[1], out));
    ::close(fds[1]);
  }
}

// ---------------------------------------------------------------------------
// Decorrelated-jitter backoff
// ---------------------------------------------------------------------------

TEST(Jitter, DeterministicBoundedAndDecorrelated) {
  const double base = 10.0, cap = 500.0;
  util::Rng a(42), b(42), c(43);
  double prev_a = 0.0, prev_b = 0.0, prev_c = 0.0;
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    prev_a = next_decorrelated_backoff_ms(a, prev_a, base, cap);
    prev_b = next_decorrelated_backoff_ms(b, prev_b, base, cap);
    prev_c = next_decorrelated_backoff_ms(c, prev_c, base, cap);
    EXPECT_DOUBLE_EQ(prev_a, prev_b);  // same seed => same schedule
    EXPECT_GE(prev_a, base);
    EXPECT_LE(prev_a, cap);
    diverged = diverged || std::abs(prev_a - prev_c) > 1e-9;
  }
  EXPECT_TRUE(diverged);  // different seeds => unsynchronized retries
  util::Rng d(7);
  EXPECT_DOUBLE_EQ(next_decorrelated_backoff_ms(d, 0.0, 0.0, cap), 0.0);
}

// ---------------------------------------------------------------------------
// Gateway behaviour
// ---------------------------------------------------------------------------

TEST(Gateway, ManyConcurrentSessionsAllServed) {
  GatewayConfig config;
  config.worker_threads = 4;
  Gateway gateway([](const GatewayRequest& r) { return r.payload; }, config);
  const std::uint16_t port = gateway.start();

  constexpr int kSessions = 16, kCalls = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      TcpClient client;
      TcpClientConfig cc;
      cc.timeout_ms = 5000.0;
      cc.session_id = static_cast<std::uint64_t>(s) + 1;
      client.connect(port, cc);
      for (int i = 0; i < kCalls; ++i) {
        const Blob request = blob_of({static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(i)});
        if (client.call(request) == request) ++ok;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kSessions * kCalls);
  gateway.stop();
}

TEST(Gateway, OverloadShedsWithTypedBusyAndNeverHangs) {
  ScopedMetrics scoped;
  GatewayConfig config;
  config.worker_threads = 1;
  config.max_queue = 2;
  config.max_inflight_per_session = 8;
  Gateway gateway(
      [](const GatewayRequest& r) {
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        return r.payload;
      },
      config);
  const std::uint16_t port = gateway.start();

  constexpr int kThreads = 12;
  std::atomic<int> served{0}, busy{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      TcpClient client;
      TcpClientConfig cc;
      cc.timeout_ms = 10'000.0;  // long deadline: only BUSY may reject us
      cc.session_id = static_cast<std::uint64_t>(i) + 1;
      client.connect(port, cc);
      try {
        client.call(blob_of({static_cast<std::uint8_t>(i)}));
        ++served;
      } catch (const GatewayBusyError&) {
        ++busy;  // typed rejection, delivered immediately — not a timeout
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every request was answered one way or the other (the hang is the one
  // forbidden outcome), and with 1 worker + queue of 2 the burst of 12 MUST
  // shed.
  EXPECT_EQ(served.load() + busy.load(), kThreads);
  EXPECT_GT(busy.load(), 0);
  EXPECT_GE(ScopedMetrics::count("cadmc.gateway.shed"), busy.load());
  EXPECT_EQ(ScopedMetrics::count("cadmc.gateway.completed"), served.load());
  gateway.stop();
}

TEST(Gateway, QueuedWorkPastItsDeadlineIsExpiredNotExecuted) {
  ScopedMetrics scoped;
  std::atomic<int> executed{0};
  GatewayConfig config;
  config.worker_threads = 1;
  Gateway gateway(
      [&](const GatewayRequest& r) {
        ++executed;
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        return r.payload;
      },
      config);
  const std::uint16_t port = gateway.start();

  // Occupy the single worker with a long request...
  std::thread blocker([&] {
    TcpClient client;
    TcpClientConfig cc;
    cc.timeout_ms = 5000.0;
    client.connect(port, cc);
    client.call(blob_of({1}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // ...then queue a request whose budget dies while it waits. The gateway
  // answers EXPIRED when it dequeues it; with no retries the client turns
  // that into a TransportError without the handler ever running.
  TcpClient client;
  TcpClientConfig cc;
  cc.timeout_ms = 5000.0;
  cc.deadline_budget_ms = 20.0;
  cc.max_retries = 0;
  client.connect(port, cc);
  EXPECT_THROW(client.call(blob_of({2})), TransportError);
  blocker.join();
  EXPECT_EQ(executed.load(), 1);  // only the blocker ran
  EXPECT_GE(ScopedMetrics::count("cadmc.gateway.expired"), 1);
  EXPECT_GE(ScopedMetrics::count("cadmc.runtime.fault.expired_rejected"), 1);
  gateway.stop();
}

TEST(Gateway, RetryRacingExecutionDoesNotExecuteTwice) {
  // Regression for the duplicate-execution race: a client deadline fires
  // while the handler (stragglered) is still running; the retry arrives on
  // a fresh connection with the same (session, sequence). The old server
  // executed it again; the gateway must re-point the reply instead.
  ScopedMetrics scoped;
  std::atomic<int> executions{0};
  GatewayConfig config;
  config.worker_threads = 2;
  Gateway gateway(
      [&](const GatewayRequest& r) {
        ++executions;
        // Server-side straggler: longer than the client deadline, so the
        // first attempt is guaranteed to time out mid-execution.
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        return r.payload;
      },
      config);
  const std::uint16_t port = gateway.start();

  TcpClient client;
  TcpClientConfig cc;
  cc.timeout_ms = 50.0;
  cc.max_retries = 4;
  cc.backoff_ms = 5.0;
  cc.backoff_max_ms = 10.0;
  cc.session_id = 9;
  cc.deadline_budget_ms = 0.0;  // unbounded: expiry must not mask the dedup
  client.connect(port, cc);
  const Blob request = blob_of({42});
  EXPECT_EQ(client.call(request), request);
  EXPECT_EQ(executions.load(), 1) << "duplicate execution on retry";
  EXPECT_GE(ScopedMetrics::count("cadmc.gateway.duplicates"), 1);

  // And a second call on the same session gets fresh execution (the dedup
  // key moved on with the sequence counter).
  const Blob next = blob_of({43});
  EXPECT_EQ(client.call(next), next);
  EXPECT_EQ(executions.load(), 2);
  gateway.stop();
}

TEST(Gateway, PerSessionInflightCapShedsThePipelinedExcess) {
  ScopedMetrics scoped;
  GatewayConfig config;
  config.worker_threads = 1;
  config.max_queue = 64;
  config.max_inflight_per_session = 2;
  Gateway gateway(
      [](const GatewayRequest& r) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return r.payload;
      },
      config);
  const std::uint16_t port = gateway.start();

  RawClient raw(port);
  constexpr int kFrames = 5;
  for (int i = 0; i < kFrames; ++i) {
    FrameMeta meta;
    meta.session_id = 5;
    meta.sequence = static_cast<std::uint64_t>(i) + 1;
    ASSERT_TRUE(write_frame(raw.fd, blob_of({static_cast<std::uint8_t>(i)}),
                            {}, meta));
  }
  int responses = 0, busy = 0, okay = 0;
  for (int i = 0; i < kFrames; ++i) {
    Blob payload;
    FrameMeta meta;
    ASSERT_TRUE(read_frame(raw.fd, payload, nullptr, &meta));
    ++responses;
    if (meta.kind == FrameKind::kBusy) ++busy;
    if (meta.kind == FrameKind::kResponse) ++okay;
  }
  EXPECT_EQ(responses, kFrames);  // all answered, none silently dropped
  EXPECT_GE(busy, 1);             // the excess beyond the cap was shed
  EXPECT_GE(okay, 2);             // the capped amount was served
  gateway.stop();
}

TEST(Gateway, IdleSessionStateIsReaped) {
  GatewayConfig config;
  config.idle_session_ms = 60.0;
  Gateway gateway([](const GatewayRequest& r) { return r.payload; }, config);
  const std::uint16_t port = gateway.start();
  {
    TcpClient client;
    TcpClientConfig cc;
    cc.timeout_ms = 2000.0;
    cc.session_id = 77;
    client.connect(port, cc);
    client.call(blob_of({1}));
  }
  EXPECT_EQ(gateway.session_count(), 1u);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (gateway.session_count() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(gateway.session_count(), 0u);
  gateway.stop();
}

TEST(Gateway, GracefulDrainFinishesQueuedWorkAndRestartsPortStable) {
  std::atomic<int> executed{0};
  GatewayConfig config;
  config.worker_threads = 1;
  config.drain_ms = 2000.0;
  Gateway gateway(
      [&](const GatewayRequest& r) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++executed;
        return r.payload;
      },
      config);
  const std::uint16_t port = gateway.start();

  RawClient raw(port);
  constexpr int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    FrameMeta meta;
    meta.session_id = 3;
    meta.sequence = static_cast<std::uint64_t>(i) + 1;
    ASSERT_TRUE(write_frame(raw.fd, blob_of({static_cast<std::uint8_t>(i)}),
                            {}, meta));
  }
  // Give the reactor a beat to admit all three, then stop: the drain budget
  // is ample, so all queued work must complete and be answered.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gateway.stop();
  EXPECT_EQ(executed.load(), kFrames);
  int okay = 0;
  for (int i = 0; i < kFrames; ++i) {
    Blob payload;
    FrameMeta meta;
    ASSERT_TRUE(read_frame(raw.fd, payload, nullptr, &meta));
    okay += meta.kind == FrameKind::kResponse;
  }
  EXPECT_EQ(okay, kFrames);

  // Restart: same port (sessions reconnect without rediscovery).
  EXPECT_EQ(gateway.start(), port);
  TcpClient client;
  TcpClientConfig cc;
  cc.timeout_ms = 2000.0;
  client.connect(port, cc);
  EXPECT_EQ(client.call(blob_of({9})), blob_of({9}));
  gateway.stop();
}

TEST(Gateway, AcceptOverflowIsCountedNotSilent) {
  ScopedMetrics scoped;
  GatewayConfig config;
  config.max_connections = 2;
  Gateway gateway([](const GatewayRequest& r) { return r.payload; }, config);
  const std::uint16_t port = gateway.start();
  std::vector<std::unique_ptr<RawClient>> conns;
  for (int i = 0; i < 5; ++i)
    conns.push_back(std::make_unique<RawClient>(port));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (ScopedMetrics::count("cadmc.gateway.accept_overflow") < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(ScopedMetrics::count("cadmc.gateway.accept_overflow"), 3);
  EXPECT_EQ(ScopedMetrics::count("cadmc.gateway.accepted"), 2);
  gateway.stop();
}

// ---------------------------------------------------------------------------
// One immutable cloud model shared by every session
// ---------------------------------------------------------------------------

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.byte_size()) == 0;
}

TEST(SharedModel, ConstForwardFromFourThreadsMatchesSerialBitwise) {
  const nn::Model model = nn::make_tiny_cnn(4, 8, 50);
  util::Rng rng(61);
  std::vector<tensor::Tensor> inputs, serial;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(tensor::Tensor::randn({2, 3, 8, 8}, rng, 0.3f));
    serial.push_back(model.forward(inputs.back()));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 8; ++rep) {
        const std::size_t i = static_cast<std::size_t>(t + rep) % inputs.size();
        if (!bitwise_equal(model.forward(inputs[i]), serial[i])) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SharedModel, ExecutorServesConcurrentSessionsBitwiseLikeSerialSuffix) {
  constexpr std::size_t kCut = 3;
  constexpr int kSessions = 8, kCalls = 4;
  const nn::Model base = nn::make_tiny_cnn(4, 8, 50);
  GatewayConfig gc;
  gc.worker_threads = 4;
  CloudExecutor executor(base.slice(kCut, base.size()),
                         latency::ComputeLatencyModel(latency::cloud_profile()),
                         gc);
  const std::uint16_t port = executor.start();

  // Distinct features per session; the reference is a serial forward_range.
  util::Rng rng(62);
  std::vector<tensor::Tensor> features, expected;
  for (int s = 0; s < kSessions; ++s) {
    features.push_back(base.forward_range(
        tensor::Tensor::randn({1, 3, 8, 8}, rng, 0.3f), 0, kCut));
    expected.push_back(base.forward_range(features.back(), kCut, base.size()));
  }
  std::atomic<int> matches{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      TcpClient client;
      TcpClientConfig cc;
      cc.timeout_ms = 30'000.0;
      cc.session_id = static_cast<std::uint64_t>(s) + 1;  // never registered
      client.connect(port, cc);
      const auto i = static_cast<std::size_t>(s);
      for (int call = 0; call < kCalls; ++call)
        if (bitwise_equal(call_cloud(client, features[i]).logits, expected[i]))
          ++matches;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(matches.load(), kSessions * kCalls);
  executor.stop();
}

TEST(SharedModel, FieldSessionRejectsASharedExecutorServingAnotherSuffix) {
  const nn::Model base = nn::make_tiny_cnn(4, 8, 50);
  compress::TechniqueRegistry techniques;
  const auto session = [&](std::size_t cut, CloudExecutor& shared) {
    Strategy s;
    s.cut = cut;
    s.plan.assign(base.size(), TechniqueId::kNone);
    util::Rng rng(63);
    FieldFaultConfig faults;
    faults.session_id = 1;
    return std::make_unique<FieldSession>(
        engine::realize_strategy(base, s, techniques, rng), &shared,
        latency::ComputeLatencyModel(latency::phone_profile()),
        net::BandwidthTrace(100.0, std::vector<double>(10, 500.0)), 10.0,
        /*time_scale=*/0.0, faults);
  };
  const latency::ComputeLatencyModel cloud(latency::cloud_profile());
  CloudExecutor shared(base.slice(3, base.size()), cloud);
  shared.start();
  EXPECT_NO_THROW(session(3, shared));
  // A different cut: the suffix has another signature.
  EXPECT_THROW(session(2, shared), std::invalid_argument);
  // Same structure, different weights.
  const nn::Model other = nn::make_tiny_cnn(4, 8, 51);
  ASSERT_EQ(other.signature(), base.signature());
  CloudExecutor retrained(other.slice(3, other.size()), cloud);
  EXPECT_THROW(session(3, retrained), std::invalid_argument);
  shared.stop();
}

// ---------------------------------------------------------------------------
// Chaos soak: the acceptance scenario
// ---------------------------------------------------------------------------

TEST(ChaosSoak, ThirtyTwoSessionsSurviveKillsStragglersAndCorruption) {
  ScopedMetrics scoped;
  constexpr int kSessions = 32;
  constexpr int kInfersPerSession = 6;
  constexpr double kAvailabilityFloor = 0.999;  // answered-correctly / total

  nn::Model base = nn::make_tiny_cnn(4, 8, 50);
  util::Rng data_rng(52);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, data_rng, 0.3f);
  const auto expected = base.forward(x);

  // One shared cloud gateway for all sessions, with server-side compute
  // stragglers long enough to outlive the client deadline sometimes.
  GatewayConfig gc;
  gc.worker_threads = 4;
  gc.max_queue = 128;
  gc.max_inflight_per_session = 4;
  Strategy s;
  s.cut = 3;
  s.plan.assign(base.size(), TechniqueId::kNone);
  compress::TechniqueRegistry techniques;
  util::Rng realize_rng(51);
  engine::RealizedStrategy shared_realized =
      engine::realize_strategy(base, s, techniques, realize_rng);
  CloudExecutor shared(
      shared_realized.model.slice(s.cut, shared_realized.model.size()),
      latency::ComputeLatencyModel(latency::cloud_profile()), gc);
  FaultPlan straggler_plan;
  straggler_plan.straggler_prob = 0.15;
  straggler_plan.straggler_sigma = 0.8;
  straggler_plan.seed = 1234;
  FaultInjector straggler(straggler_plan);
  shared.set_straggler_injector(&straggler, /*base_ms=*/30.0);
  shared.start();

  // Per-session frame chaos (distinct seeds: injector RNGs are not shared
  // across threads).
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<FieldSession>> sessions;
  net::BandwidthTrace trace(100.0, std::vector<double>(300, 500.0));
  for (int i = 0; i < kSessions; ++i) {
    FaultPlan plan;
    plan.frame_corrupt_prob = 0.05;
    plan.frame_truncate_prob = 0.03;
    plan.frame_drop_prob = 0.02;
    plan.seed = 9000 + static_cast<std::uint64_t>(i);
    injectors.push_back(std::make_unique<FaultInjector>(plan));

    util::Rng rng(200 + static_cast<std::uint64_t>(i));
    engine::RealizedStrategy realized =
        engine::realize_strategy(base, s, techniques, rng);
    FieldFaultConfig faults;
    faults.cloud_deadline_ms = 250.0;
    faults.max_retries = 1;
    faults.backoff_ms = 2.0;
    faults.breaker.failure_threshold = 2;
    faults.breaker.probe_interval = 2;
    faults.injector = injectors.back().get();
    faults.session_id = static_cast<std::uint64_t>(i) + 1;
    sessions.push_back(std::make_unique<FieldSession>(
        realized, &shared,
        latency::ComputeLatencyModel(latency::phone_profile()), trace, 10.0,
        /*time_scale=*/0.0, faults));
  }
  // Keep flight dumps (file writes on every fault) out of the soak; the
  // spans still reach the shared ring, since metrics are on.
  obs::set_flight_recording(false);

  std::atomic<int> correct{0}, wrong{0}, degraded{0}, finished_threads{0};
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  std::vector<std::thread> threads;
  std::atomic<bool> chaos_running{true};

  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      for (int call = 0; call < kInfersPerSession; ++call) {
        const FieldOutcome outcome =
            sessions[static_cast<std::size_t>(i)]->infer(x, 100.0 * call);
        const bool match =
            tensor::Tensor::max_abs_diff(outcome.logits, expected) < 1e-4f;
        match ? ++correct : ++wrong;
        degraded += outcome.degraded;
      }
      ++finished_threads;
      watchdog_cv.notify_all();
    });
  }

  // Chaos driver: kill the shared gateway mid-flight and bring it back,
  // repeatedly. Port-stable restart means sessions reconnect on their own.
  std::thread chaos([&] {
    for (int round = 0; round < 3 && chaos_running.load(); ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      shared.stop();
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      if (chaos_running.load()) shared.start();
    }
  });

  // Global watchdog: the whole soak must finish inside the budget — a hang
  // is the primary failure mode this suite exists to catch.
  {
    std::unique_lock<std::mutex> lock(watchdog_mutex);
    const bool done = watchdog_cv.wait_for(
        lock, std::chrono::seconds(180),
        [&] { return finished_threads.load() == kSessions; });
    if (!done) {
      ADD_FAILURE() << "chaos soak hung: " << finished_threads.load() << "/"
                    << kSessions << " sessions finished";
      std::abort();  // joining hung threads would hang the harness too
    }
  }
  chaos_running.store(false);
  for (auto& t : threads) t.join();
  chaos.join();

  const int total = kSessions * kInfersPerSession;
  EXPECT_EQ(correct.load() + wrong.load(), total);  // zero hangs, zero losses
  EXPECT_EQ(wrong.load(), 0);  // degraded or not, logits are never wrong
  const double availability =
      static_cast<double>(correct.load()) / static_cast<double>(total);
  EXPECT_GE(availability, kAvailabilityFloor);
  // The chaos actually bit (some calls degraded to the edge fallback) and
  // the gateway actually served (some offloads completed).
  EXPECT_GT(degraded.load(), 0);
  EXPECT_GT(ScopedMetrics::count("cadmc.gateway.completed"), 0);
  sessions.clear();
  shared.stop();
}

}  // namespace
}  // namespace cadmc::runtime
