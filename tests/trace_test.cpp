// Distributed-tracing suite (`ctest -L obs`): the frame header wire format
// (known-answer bytes, independent trace-section CRC), cross-process span
// parenting over a real socket, the Chrome trace exporter and the multi-
// stream merge path, and the fault flight recorder (ring semantics, JSONL
// dumps, breaker-open postmortems — including the acceptance scenario: a
// cloud kill must leave a flight dump holding the breaker_open event).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "latency/device_profile.h"
#include "nn/factory.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "runtime/field.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"
#include "util/csv.h"

namespace cadmc::runtime {
namespace {

using obs::FlightEventKind;
using obs::FlightRecorder;

class ScopedMetrics {
 public:
  ScopedMetrics() {
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  ~ScopedMetrics() { obs::set_enabled(false); }
};

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

std::string temp_path(const std::string& leaf) {
  return std::string(::testing::TempDir()) + leaf;
}

std::uint64_t le_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t le_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

TEST(TraceWireFormat, KnownAnswerHeaderBytes) {
  SocketPair sp;
  const Blob payload{0x10, 0x20, 0x30};
  TraceContext trace;
  trace.trace_id = 0x1122334455667788ULL;
  trace.span_id = 0xAABBCCDDEEFF0011ULL;
  trace.clock_ms = 1.5;  // 0x3FF8000000000000 as an IEEE-754 bit pattern
  ASSERT_TRUE(write_frame(sp.fds[0], payload, trace));

  std::uint8_t raw[kFrameHeaderBytes + 3];
  ASSERT_EQ(::recv(sp.fds[1], raw, sizeof(raw), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(raw)));
  // [0..7] payload length, [8..11] payload CRC (covered by fault_test too).
  EXPECT_EQ(le_u64(raw), 3u);
  EXPECT_EQ(le_u32(raw + 8), crc32(payload.data(), payload.size()));
  // [12..19] trace id, little-endian: low byte 0x88 first.
  EXPECT_EQ(raw[kFrameTraceOffset], 0x88);
  EXPECT_EQ(raw[kFrameTraceOffset + 7], 0x11);
  EXPECT_EQ(le_u64(raw + kFrameTraceOffset), trace.trace_id);
  // [20..27] parent span id.
  EXPECT_EQ(le_u64(raw + kFrameTraceOffset + 8), trace.span_id);
  // [28..35] sender clock as an f64 bit pattern.
  EXPECT_EQ(le_u64(raw + kFrameTraceOffset + 16), 0x3FF8000000000000ULL);
  // [36..39] CRC of the 24-byte trace section, independent of the payload.
  EXPECT_EQ(le_u32(raw + kFrameTraceOffset + kFrameTraceBytes),
            crc32(raw + kFrameTraceOffset, kFrameTraceBytes));
  // Payload follows the 40-byte header.
  EXPECT_EQ(std::memcmp(raw + kFrameHeaderBytes, payload.data(),
                        payload.size()),
            0);
}

TEST(TraceWireFormat, RoundTripCarriesContext) {
  SocketPair sp;
  const Blob payload{1, 2, 3, 4};
  TraceContext sent{42, 7, 1234.5625};
  ASSERT_TRUE(write_frame(sp.fds[0], payload, sent));
  Blob back;
  TraceContext received;
  ASSERT_TRUE(read_frame(sp.fds[1], back, &received));
  EXPECT_EQ(back, payload);
  EXPECT_EQ(received.trace_id, sent.trace_id);
  EXPECT_EQ(received.span_id, sent.span_id);
  EXPECT_EQ(received.clock_ms, sent.clock_ms);  // exact: f64 bit pattern
}

TEST(TraceWireFormat, CorruptTraceSectionDegradesToFreshRoot) {
  SocketPair sp;
  const Blob payload{9, 8, 7, 6, 5};
  ASSERT_TRUE(write_frame(sp.fds[0], payload, TraceContext{99, 4, 10.0}));
  std::uint8_t raw[kFrameHeaderBytes + 5];
  ASSERT_EQ(::recv(sp.fds[1], raw, sizeof(raw), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(raw)));
  raw[kFrameTraceOffset + 2] ^= 0x40;  // flip a trace-id byte
  ASSERT_EQ(::send(sp.fds[0], raw, sizeof(raw), 0),
            static_cast<ssize_t>(sizeof(raw)));
  Blob back;
  TraceContext received{123, 456, 7.0};  // stale values must be cleared
  // The payload has its own CRC and is intact: the frame survives, only the
  // trace context degrades to "fresh root".
  ASSERT_TRUE(read_frame(sp.fds[1], back, &received));
  EXPECT_EQ(back, payload);
  EXPECT_EQ(received.trace_id, 0u);
  EXPECT_EQ(received.span_id, 0u);
  EXPECT_EQ(received.clock_ms, 0.0);
}

TEST(TraceWireFormat, TruncatedHeaderFailsCleanly) {
  SocketPair sp;
  // 20 of the 40 header bytes, then EOF: read_frame must return false, not
  // crash or hang.
  std::uint8_t partial[20] = {};
  partial[0] = 4;
  ASSERT_EQ(::send(sp.fds[0], partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  ::shutdown(sp.fds[0], SHUT_WR);
  Blob back;
  TraceContext received;
  EXPECT_FALSE(read_frame(sp.fds[1], back, &received));
  EXPECT_EQ(received.trace_id, 0u);
}

/// The tentpole acceptance path: spans opened inside the server's request
/// handler must join the client's trace, parented under the client's
/// transport span — one causal tree per request across the socket.
TEST(DistributedTrace, ServerSpansJoinClientTrace) {
  ScopedMetrics scoped;
  Gateway server([](const GatewayRequest& r) {
    obs::ScopedSpan span("cloud_work");
    return r.payload;
  });
  const std::uint16_t port = server.start();
  TcpClient client;
  client.connect(port);
  {
    obs::ScopedSpan root("edge_request");
    EXPECT_EQ(client.call({1, 2, 3}), (Blob{1, 2, 3}));
  }
  client.close();
  server.stop();

  const auto spans = obs::MetricsRegistry::global().spans();
  const auto find = [&](const std::string& name) {
    for (const auto& s : spans)
      if (s.name == name) return s;
    ADD_FAILURE() << "span '" << name << "' not recorded";
    return obs::SpanRecord{};
  };
  const auto root = find("edge_request");
  const auto call = find("transport_call");
  const auto serve = find("transport_serve");
  const auto work = find("cloud_work");

  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_NE(root.trace_id, 0u);  // a root span opens its own trace
  // Client side: the transport span nests under the request root.
  EXPECT_EQ(call.parent_id, root.id);
  EXPECT_EQ(call.trace_id, root.trace_id);
  // Server side: parented under the client's transport span via the wire
  // context, same trace — despite running on another thread with no local
  // parent.
  EXPECT_EQ(serve.parent_id, call.id);
  EXPECT_EQ(serve.trace_id, root.trace_id);
  EXPECT_EQ(work.parent_id, serve.id);
  EXPECT_EQ(work.trace_id, root.trace_id);
  // Clock alignment: the server span is expressed in the client's timebase,
  // so it must start within the client call's window (sub-ms skew allowed).
  EXPECT_GE(serve.start_ms, call.start_ms - 1.0);
  EXPECT_LE(serve.start_ms, call.start_ms + call.wall_ms + 1.0);
}

TEST(DistributedTrace, ChromeTraceExportIsWellFormed) {
  ScopedMetrics scoped;
  {
    obs::ScopedSpan root("frame");
    obs::ScopedSpan child("edge_compute");
  }
  const std::string doc =
      obs::to_chrome_trace(obs::MetricsRegistry::global().spans());
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"frame\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"edge_compute\""), std::string::npos);
  // Braces and brackets balance (cheap well-formedness check).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

/// `cadmc report --metrics edge.jsonl,cloud.jsonl`: streams from separate
/// processes merge into single causal trees keyed by their shared trace ids.
TEST(DistributedTrace, JsonlMergeRebuildsOneTrace) {
  ScopedMetrics scoped;
  Gateway server([](const GatewayRequest& r) {
    obs::ScopedSpan span("cloud_work");
    return r.payload;
  });
  const std::uint16_t port = server.start();
  TcpClient client;
  client.connect(port);
  {
    obs::ScopedSpan root("edge_request");
    client.call({42});
  }
  client.close();
  server.stop();

  // Round-trip the whole stream through JSONL (as the CLI would).
  const std::string jsonl = obs::to_jsonl(obs::MetricsRegistry::global());
  const auto events = obs::parse_jsonl(jsonl);
  const obs::RunReport report = obs::report_from_events(events);
  ASSERT_EQ(report.profile.traces.size(), 1u);
  const obs::TraceProfile& trace = report.profile.traces[0];
  EXPECT_NE(trace.trace_id, 0u);
  // edge_request, transport_call/serve, cloud_work
  EXPECT_GE(trace.span_count, 4u);
  EXPECT_EQ(trace.root_name, "edge_request");

  const std::string doc = obs::to_chrome_trace(obs::spans_from_events(events));
  EXPECT_NE(doc.find("\"name\":\"transport_serve\""), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":" + std::to_string(trace.trace_id)),
            std::string::npos);
}

TEST(FlightRecorderTest, RingRetainsMostRecentEvents) {
  FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    const std::string name = "event_" + std::to_string(i);
    recorder.record(FlightEventKind::kFault, name.c_str(), 1, 2, 3,
                    static_cast<double>(i), 0.0);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_STREQ(events.front().name, "event_12");  // oldest retained
  EXPECT_STREQ(events.back().name, "event_19");   // newest
  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorderTest, NamesAreTruncatedNotOverrun) {
  FlightRecorder recorder(4);
  const std::string longname(200, 'x');
  recorder.record(FlightEventKind::kSpan, longname.c_str(), 0, 0, 0, 0.0, 0.0);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].name), FlightRecorder::kNameCapacity - 1);
}

TEST(FlightRecorderTest, DumpJsonlRoundTrips) {
  FlightRecorder recorder(16);
  recorder.record(FlightEventKind::kSpan, "transfer", 7, 2, 1, 10.0, 3.5);
  recorder.record(FlightEventKind::kBreaker, "breaker_open", 7, 0, 2, 14.0,
                  0.0);
  const std::string path = temp_path("cadmc_trace_test_dump.jsonl");
  ASSERT_TRUE(recorder.dump_jsonl(path, "unit_test"));
  std::string text;
  ASSERT_TRUE(util::read_file(path, text));
  const auto events = obs::parse_jsonl(text);
  ASSERT_EQ(events.size(), 3u);  // header + 2 events
  EXPECT_EQ(events[0].at("type"), "flight_dump");
  EXPECT_EQ(events[0].at("reason"), "unit_test");
  EXPECT_EQ(events[1].at("kind"), "span");
  EXPECT_EQ(events[1].at("name"), "transfer");
  EXPECT_EQ(events[2].at("kind"), "breaker");
  EXPECT_EQ(events[2].at("name"), "breaker_open");
  std::filesystem::remove(path);
}

TEST(FlightRecorderTest, DumpKeepsTimesExactAfterAnHourOfUptime) {
  // An hour of uptime is 3.6e6 ms: a 6-significant-digit dump would print
  // 3.6e+06 and lose every sub-second detail of the postmortem.
  FlightRecorder recorder(4);
  recorder.record(FlightEventKind::kSpan, "transfer", 7, 2, 1, 3600000.25,
                  0.125);
  const std::string path = temp_path("cadmc_trace_test_dump_time.jsonl");
  ASSERT_TRUE(recorder.dump_jsonl(path, "unit_test"));
  std::string text;
  ASSERT_TRUE(util::read_file(path, text));
  const auto events = obs::parse_jsonl(text);
  ASSERT_EQ(events.size(), 2u);  // header + 1 event
  EXPECT_EQ(events[1].at("t_ms"), "3600000.25");
  EXPECT_EQ(obs::event_double(events[1], "t_ms"), 3600000.25);
  EXPECT_EQ(obs::event_double(events[1], "dur_ms"), 0.125);
  std::filesystem::remove(path);
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearSnapshots) {
  FlightRecorder recorder(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed))
      recorder.record(FlightEventKind::kSpan, "w", 1, 1, 1,
                      static_cast<double>(i++), 0.0);
  });
  for (int i = 0; i < 200; ++i) {
    for (const auto& event : recorder.snapshot()) {
      // A torn slot would show a name that is neither "w" nor empty.
      EXPECT_STREQ(event.name, "w");
    }
  }
  stop = true;
  writer.join();
}

// Wraparound stress for the per-slot seqlock: four writers lap a tiny ring
// thousands of times while a reader snapshots. Each event is written with
// dur_ms = 2 * t_ms + 1, so any torn copy (words from two different writes)
// breaks the invariant. Also pins the kQueue wire name ("queue") introduced
// for gateway queue waits.
TEST(FlightRecorderTest, RingWraparoundUnderConcurrentWritersStaysConsistent) {
  FlightRecorder recorder(8);  // tiny: every write after the 8th wraps
  constexpr int kWriters = 4, kPerWriter = 4000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i) {
        const double t = static_cast<double>(w * kPerWriter + i);
        recorder.record(FlightEventKind::kQueue, "gateway_queue", 1, 2, 3, t,
                        2.0 * t + 1.0);
      }
    });
  go = true;
  // Snapshot while the ring is being lapped: torn slots must be dropped, and
  // every returned event must be internally consistent.
  for (int pass = 0; pass < 400; ++pass) {
    for (const auto& event : recorder.snapshot()) {
      EXPECT_EQ(event.kind, FlightEventKind::kQueue);
      EXPECT_STREQ(event.name, "gateway_queue");
      EXPECT_DOUBLE_EQ(event.dur_ms, 2.0 * event.t_ms + 1.0);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  // Concurrent laps may leave a slot whose final write came from an older
  // ticket (the reader rightly discards those), so only bound the size here…
  EXPECT_LE(recorder.snapshot().size(), recorder.capacity());
  // …then lap the ring once single-threaded: quiescent wraparound must
  // retain exactly the last `capacity` events, oldest first.
  for (int i = 0; i < 2 * static_cast<int>(recorder.capacity()); ++i)
    recorder.record(FlightEventKind::kQueue, "settled", 1, 2, 3,
                    static_cast<double>(i), 0.0);
  const auto settled = recorder.snapshot();
  ASSERT_EQ(settled.size(), recorder.capacity());
  EXPECT_DOUBLE_EQ(settled.front().t_ms,
                   static_cast<double>(recorder.capacity()));
  EXPECT_DOUBLE_EQ(settled.back().t_ms,
                   static_cast<double>(2 * recorder.capacity() - 1));
}

// The ring holds far more than a postmortem needs: a dump writes only the
// newest kDumpEvents of it.
TEST(FlightRecorderTest, DumpWritesTheNewestDumpEventsOnly) {
  constexpr std::size_t kRecorded = FlightRecorder::kDumpEvents + 300;
  FlightRecorder recorder(2 * FlightRecorder::kDumpEvents);
  for (std::size_t i = 0; i < kRecorded; ++i)
    recorder.record(FlightEventKind::kSpan, "frame", 1, i + 1, 0,
                    static_cast<double>(i), 1.0);
  const std::string path = temp_path("cadmc_trace_test_dump_newest.jsonl");
  ASSERT_TRUE(recorder.dump_jsonl(path, "unit_test"));
  std::string text;
  ASSERT_TRUE(util::read_file(path, text));
  const auto events = obs::parse_jsonl(text);
  ASSERT_EQ(events.size(), 1 + FlightRecorder::kDumpEvents);
  EXPECT_EQ(events[0].at("events"),
            std::to_string(FlightRecorder::kDumpEvents));
  EXPECT_EQ(events[0].at("recorded"), std::to_string(kRecorded));
  EXPECT_EQ(obs::event_double(events[1], "t_ms"), 300.0);
  EXPECT_EQ(obs::event_double(events.back(), "t_ms"),
            static_cast<double>(kRecorded - 1));
  std::filesystem::remove(path);
}

TEST(FlightRecorderTest, QueueEventsDumpWithQueueKind) {
  FlightRecorder recorder(8);
  recorder.record(FlightEventKind::kQueue, "shed_queue_full", 9, 0, 4, 12.0,
                  0.0);
  const std::string path = temp_path("cadmc_trace_test_queue_dump.jsonl");
  ASSERT_TRUE(recorder.dump_jsonl(path, "unit_test"));
  std::string text;
  ASSERT_TRUE(util::read_file(path, text));
  const auto events = obs::parse_jsonl(text);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].at("kind"), "queue");
  EXPECT_EQ(events[1].at("name"), "shed_queue_full");
  std::filesystem::remove(path);
}

/// Acceptance: killing the cloud mid-run must leave a flight dump on disk
/// whose events include the breaker_open transition.
TEST(FlightDump, CloudKillProducesBreakerOpenDump) {
  const std::string path = temp_path("cadmc_trace_test_flight.jsonl");
  std::filesystem::remove(path);
  obs::set_flight_dump_path(path);
  obs::FlightRecorder::global().clear();

  nn::Model base = nn::make_tiny_cnn(4, 8, 50);
  engine::Strategy s;
  s.cut = 3;
  s.plan.assign(base.size(), compress::TechniqueId::kNone);
  util::Rng rng(51);
  compress::TechniqueRegistry techniques;
  engine::RealizedStrategy realized =
      engine::realize_strategy(base, s, techniques, rng);

  FieldFaultConfig faults;
  faults.cloud_deadline_ms = 200.0;
  faults.breaker.failure_threshold = 2;
  net::BandwidthTrace trace(100.0, std::vector<double>(100, 500.0));
  CloudExecutor cloud(realized.model.slice(realized.cut, realized.model.size()),
                      latency::ComputeLatencyModel(latency::cloud_profile()));
  cloud.start();
  FieldSession session(realized, &cloud,
                       latency::ComputeLatencyModel(latency::phone_profile()),
                       trace, 10.0, /*time_scale=*/0.0, faults);
  ASSERT_TRUE(session.offloads());
  EXPECT_TRUE(obs::flight_recording());  // field mode forces the recorder on

  util::Rng data_rng(52);
  const auto x = tensor::Tensor::randn({1, 3, 8, 8}, data_rng, 0.3f);
  session.kill_cloud();
  for (int i = 0; i < 3; ++i) session.infer(x, 100.0 * i);
  ASSERT_EQ(session.breaker_state(), CircuitBreaker::State::kOpen);

  std::string text;
  ASSERT_TRUE(util::read_file(path, text)) << "no flight dump at " << path;
  const auto events = obs::parse_jsonl(text);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].at("type"), "flight_dump");
  bool saw_breaker_open = false;
  bool saw_fault = false;
  for (const auto& event : events) {
    if (event.count("kind") && event.at("kind") == "breaker" &&
        event.at("name") == "breaker_open")
      saw_breaker_open = true;
    if (event.count("kind") && event.at("kind") == "fault") saw_fault = true;
  }
  EXPECT_TRUE(saw_breaker_open) << "dump lacks the breaker_open event";
  EXPECT_TRUE(saw_fault) << "dump lacks the deadline/transport fault events";

  obs::set_flight_recording(false);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cadmc::runtime
