// Critical-path profiler suite (`ctest -L obs`): known-answer span trees
// with exact self-time / critical-path / parallelism numbers (serial chain,
// perfectly parallel fan-out, mixed DAG, multi-root forests), determinism
// under input shuffling, round-trips through the JSONL and Chrome trace
// exporters, CSV escaping of hostile span names, and the two live-serving
// acceptance scenarios: the gateway's queue wait must appear as a span on
// the serve critical path, and the periodic snapshot exporter plus
// Gateway::stats() must be clean under concurrent traffic (CI runs this
// label under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/critpath.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"

namespace cadmc::runtime {
namespace {

using obs::CritNode;
using obs::ProfileReport;
using obs::SpanRecord;
using obs::TraceProfile;

class ScopedMetrics {
 public:
  ScopedMetrics() {
    obs::set_enabled(true);
    obs::MetricsRegistry::global().reset();
  }
  ~ScopedMetrics() { obs::set_enabled(false); }
};

std::string temp_path(const std::string& leaf) {
  return std::string(::testing::TempDir()) + leaf;
}

SpanRecord span_of(std::uint64_t id, std::uint64_t parent,
                   const std::string& name, double start, double wall,
                   std::uint64_t trace = 1) {
  SpanRecord s;
  s.id = id;
  s.parent_id = parent;
  s.trace_id = trace;
  s.name = name;
  s.start_ms = start;
  s.wall_ms = wall;
  return s;
}

const CritNode* find_node(const TraceProfile& trace, const std::string& name) {
  for (const CritNode& n : trace.nodes)
    if (n.span.name == name) return &n;
  return nullptr;
}

std::vector<std::string> critical_names(const TraceProfile& trace) {
  std::vector<std::string> names;
  for (int i : trace.critical_nodes) names.push_back(trace.nodes[i].span.name);
  return names;
}

// ---------------------------------------------------------------------------
// Known-answer trees: exact numbers, hand-computed
// ---------------------------------------------------------------------------

// frame [0,10] -> a [0,4], b [4,10]; b -> b1 [5,8].
// Fully serial: self(frame)=0, self(a)=4, self(b)=6-3=3, self(b1)=3.
// Critical path = frame's wall = 10, work = 10, parallelism = 1.
TEST(CritPath, SerialChainExactNumbers) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "frame", 0.0, 10.0));
  spans.push_back(span_of(2, 1, "a", 0.0, 4.0));
  spans.push_back(span_of(3, 1, "b", 4.0, 6.0));
  spans.push_back(span_of(4, 3, "b1", 5.0, 3.0));

  const ProfileReport report = obs::profile_spans(spans);
  ASSERT_EQ(report.traces.size(), 1u);
  const TraceProfile& t = report.traces[0];
  EXPECT_EQ(t.root_name, "frame");
  EXPECT_EQ(t.span_count, 4u);
  EXPECT_DOUBLE_EQ(t.makespan_ms, 10.0);
  EXPECT_DOUBLE_EQ(t.critical_path_ms, 10.0);
  EXPECT_DOUBLE_EQ(t.total_work_ms, 10.0);
  EXPECT_DOUBLE_EQ(t.parallelism, 1.0);

  EXPECT_DOUBLE_EQ(find_node(t, "frame")->self_ms, 0.0);
  EXPECT_DOUBLE_EQ(find_node(t, "a")->self_ms, 4.0);
  EXPECT_DOUBLE_EQ(find_node(t, "b")->self_ms, 3.0);
  EXPECT_DOUBLE_EQ(find_node(t, "b1")->self_ms, 3.0);
  // A fully serial trace has every span on the critical path, in time order.
  EXPECT_EQ(critical_names(t),
            (std::vector<std::string>{"frame", "a", "b", "b1"}));

  // "a" contributes the largest critical self time (4 > 3 > 3 > 0).
  EXPECT_EQ(report.bottleneck, "a");
  EXPECT_DOUBLE_EQ(report.bottleneck_share, 0.4);
  EXPECT_DOUBLE_EQ(report.parallelism, 1.0);
}

// frame [0,10] -> three overlapping workers "w" [1,9].
// self(frame) = 10 - 8 = 2 (children cover [1,9] once), self(w) = 8 each.
// Overlapping siblings never chain: critical = 2 + 8 = 10, work = 26.
TEST(CritPath, ParallelFanOutExactNumbers) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "frame", 0.0, 10.0));
  spans.push_back(span_of(2, 1, "w", 1.0, 8.0));
  spans.push_back(span_of(3, 1, "w", 1.0, 8.0));
  spans.push_back(span_of(4, 1, "w", 1.0, 8.0));

  const ProfileReport report = obs::profile_spans(spans);
  ASSERT_EQ(report.traces.size(), 1u);
  const TraceProfile& t = report.traces[0];
  EXPECT_DOUBLE_EQ(t.critical_path_ms, 10.0);
  EXPECT_DOUBLE_EQ(t.total_work_ms, 26.0);
  EXPECT_DOUBLE_EQ(t.parallelism, 2.6);
  EXPECT_DOUBLE_EQ(find_node(t, "frame")->self_ms, 2.0);

  // Exactly one worker lies on the path (ties break by smaller span id).
  ASSERT_EQ(t.critical_nodes.size(), 2u);
  EXPECT_EQ(t.nodes[t.critical_nodes[0]].span.id, 1u);
  EXPECT_EQ(t.nodes[t.critical_nodes[1]].span.id, 2u);
  int on_path = 0;
  for (const CritNode& n : t.nodes)
    if (n.span.name == "w" && n.on_critical_path) ++on_path;
  EXPECT_EQ(on_path, 1);

  EXPECT_EQ(report.bottleneck, "w");
  EXPECT_DOUBLE_EQ(report.bottleneck_share, 0.8);
}

// frame [0,12] -> prep [0,2], then {left [2,6] || right [2,4]}, post [8,4].
// Chains: prep->left->post = 12 beats prep->right->post = 10.
TEST(CritPath, MixedDagExactNumbers) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "frame", 0.0, 12.0));
  spans.push_back(span_of(2, 1, "prep", 0.0, 2.0));
  spans.push_back(span_of(3, 1, "left", 2.0, 6.0));
  spans.push_back(span_of(4, 1, "right", 2.0, 4.0));
  spans.push_back(span_of(5, 1, "post", 8.0, 4.0));

  const ProfileReport report = obs::profile_spans(spans);
  ASSERT_EQ(report.traces.size(), 1u);
  const TraceProfile& t = report.traces[0];
  EXPECT_DOUBLE_EQ(t.critical_path_ms, 12.0);
  EXPECT_DOUBLE_EQ(t.total_work_ms, 16.0);
  EXPECT_DOUBLE_EQ(t.parallelism, 16.0 / 12.0);
  EXPECT_DOUBLE_EQ(find_node(t, "frame")->self_ms, 0.0);

  EXPECT_EQ(critical_names(t),
            (std::vector<std::string>{"frame", "prep", "left", "post"}));
  EXPECT_FALSE(find_node(t, "right")->on_critical_path);
  EXPECT_DOUBLE_EQ(find_node(t, "right")->critical_ms, 4.0);

  EXPECT_EQ(report.bottleneck, "left");
  EXPECT_DOUBLE_EQ(report.bottleneck_share, 0.5);
  EXPECT_EQ(report.by_name.at("right").critical_count, 0u);
  EXPECT_EQ(report.by_name.at("left").critical_count, 1u);
}

// A trace holding several roots is a forest under a virtual root: roots obey
// the same happens-before rule as siblings.
TEST(CritPath, MultiRootForestChainsByHappensBefore) {
  // Sequential roots: r1 [0,3] ends before r2 [3,5] starts => chain = 8.
  std::vector<SpanRecord> seq;
  seq.push_back(span_of(1, 0, "r1", 0.0, 3.0));
  seq.push_back(span_of(2, 0, "r2", 3.0, 5.0));
  const ProfileReport serial = obs::profile_spans(seq);
  ASSERT_EQ(serial.traces.size(), 1u);
  EXPECT_DOUBLE_EQ(serial.traces[0].critical_path_ms, 8.0);
  EXPECT_DOUBLE_EQ(serial.traces[0].parallelism, 1.0);

  // Concurrent roots: r1 [0,3] overlaps r2 [0,5] => longest root wins.
  std::vector<SpanRecord> par;
  par.push_back(span_of(1, 0, "r1", 0.0, 3.0));
  par.push_back(span_of(2, 0, "r2", 0.0, 5.0));
  const ProfileReport parallel = obs::profile_spans(par);
  ASSERT_EQ(parallel.traces.size(), 1u);
  EXPECT_DOUBLE_EQ(parallel.traces[0].critical_path_ms, 5.0);
  EXPECT_DOUBLE_EQ(parallel.traces[0].total_work_ms, 8.0);
  EXPECT_DOUBLE_EQ(parallel.traces[0].parallelism, 1.6);
}

// A span whose parent id never closed (dropped record) is promoted to root
// rather than vanishing from the totals.
TEST(CritPath, OrphanSpanPromotedToRoot) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "frame", 0.0, 4.0));
  spans.push_back(span_of(9, 77, "orphan", 4.0, 2.0));  // parent 77 absent
  const ProfileReport report = obs::profile_spans(spans);
  ASSERT_EQ(report.traces.size(), 1u);
  EXPECT_DOUBLE_EQ(report.traces[0].total_work_ms, 6.0);
  EXPECT_DOUBLE_EQ(report.traces[0].critical_path_ms, 6.0);  // sequential
}

// ---------------------------------------------------------------------------
// Determinism and round-trips
// ---------------------------------------------------------------------------

TEST(CritPath, InputOrderDoesNotChangeReport) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "frame", 0.0, 12.0));
  spans.push_back(span_of(2, 1, "prep", 0.0, 2.0));
  spans.push_back(span_of(3, 1, "left", 2.0, 6.0));
  spans.push_back(span_of(4, 1, "right", 2.0, 4.0));
  spans.push_back(span_of(5, 1, "post", 8.0, 4.0));
  spans.push_back(span_of(6, 0, "other", 0.0, 1.0, /*trace=*/2));

  const std::string baseline = obs::profile_jsonl(obs::profile_spans(spans));
  std::vector<SpanRecord> shuffled = spans;
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(obs::profile_jsonl(obs::profile_spans(shuffled)), baseline);
  std::rotate(shuffled.begin(), shuffled.begin() + 2, shuffled.end());
  EXPECT_EQ(obs::profile_jsonl(obs::profile_spans(shuffled)), baseline);
}

// frame [0,12] -> prep [0,2], left [2,8] || right [2,6], post [8,12]:
// critical path 12, work 16. The round trips also run it shifted to an hour
// of uptime (3.6e6 ms), where 6-significant-digit timestamps would round
// to whole seconds and merge the serial siblings into parallel ones.
std::vector<SpanRecord> fan_out_tree(double shift) {
  return {span_of(1, 0, "frame", shift + 0.0, 12.0),
          span_of(2, 1, "prep", shift + 0.0, 2.0),
          span_of(3, 1, "left", shift + 2.0, 6.0),
          span_of(4, 1, "right", shift + 2.0, 4.0),
          span_of(5, 1, "post", shift + 8.0, 4.0)};
}

TEST(CritPath, JsonlRoundTripPreservesProfile) {
  for (const double shift : {0.0, 3.6e6}) {
    SCOPED_TRACE(shift);
    obs::MetricsRegistry registry;
    for (const SpanRecord& s : fan_out_tree(shift)) registry.record_span(s);

    const std::string jsonl = obs::to_jsonl(registry);
    EXPECT_FALSE(obs::looks_like_chrome_trace(jsonl));
    const std::vector<SpanRecord> decoded =
        obs::spans_from_events(obs::parse_jsonl(jsonl));
    ASSERT_EQ(decoded.size(), 5u);

    const ProfileReport direct = obs::profile_spans(registry.spans());
    const ProfileReport via_file = obs::profile_spans(decoded);
    EXPECT_EQ(obs::profile_jsonl(via_file), obs::profile_jsonl(direct));
    EXPECT_DOUBLE_EQ(via_file.traces[0].critical_path_ms, 12.0);
    EXPECT_EQ(via_file.bottleneck, "left");
  }
}

TEST(CritPath, ChromeTraceRoundTripPreservesProfile) {
  for (const double shift : {0.0, 3.6e6}) {
    SCOPED_TRACE(shift);
    const std::vector<SpanRecord> spans = fan_out_tree(shift);
    const std::string chrome = obs::to_chrome_trace(spans);
    EXPECT_TRUE(obs::looks_like_chrome_trace(chrome));
    const std::vector<SpanRecord> decoded =
        obs::spans_from_chrome_trace(chrome);
    ASSERT_EQ(decoded.size(), 5u);

    const ProfileReport report = obs::profile_spans(decoded);
    ASSERT_EQ(report.traces.size(), 1u);
    EXPECT_DOUBLE_EQ(report.traces[0].critical_path_ms, 12.0);
    EXPECT_DOUBLE_EQ(report.traces[0].total_work_ms, 16.0);
    EXPECT_EQ(report.bottleneck, "left");
    EXPECT_EQ(obs::profile_jsonl(report),
              obs::profile_jsonl(obs::profile_spans(spans)));
  }
}

TEST(CritPath, ProfileCsvEscapesHostileNames) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "conv,\"3x3\"", 0.0, 4.0));
  const std::string csv = obs::profile_csv(obs::profile_spans(spans));
  // The hostile name occupies ONE field: comma kept inside quotes, inner
  // quotes doubled (RFC 4180).
  EXPECT_NE(csv.find("\"conv,\"\"3x3\"\"\""), std::string::npos);
  EXPECT_EQ(csv.find("conv,\"3x3\""), std::string::npos);
}

TEST(CritPath, RenderProfileNamesBottleneck) {
  std::vector<SpanRecord> spans;
  spans.push_back(span_of(1, 0, "frame", 0.0, 12.0));
  spans.push_back(span_of(2, 1, "prep", 0.0, 2.0));
  spans.push_back(span_of(3, 1, "left", 2.0, 6.0));
  spans.push_back(span_of(4, 1, "right", 2.0, 4.0));
  spans.push_back(span_of(5, 1, "post", 8.0, 4.0));
  const std::string text =
      obs::render_profile(obs::profile_spans(spans), /*top=*/10);
  EXPECT_NE(text.find("left"), std::string::npos);
  EXPECT_NE(text.find("bottleneck"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live serving: queue-wait span + snapshot exporter under concurrency
// ---------------------------------------------------------------------------

// Acceptance scenario: with one worker and a slow handler, the second
// request's admission-queue wait must surface as a `gateway_queue` span
// parented under the edge's transport_call, serialized before
// transport_serve, and lying on the trace's critical path.
TEST(CritPath, GatewayQueueWaitAppearsOnServeCriticalPath) {
  ScopedMetrics scoped;
  GatewayConfig config;
  config.worker_threads = 1;
  std::atomic<int> entered{0};
  Gateway gateway(
      [&](const GatewayRequest& r) {
        entered.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return r.payload;
      },
      config);
  const std::uint16_t port = gateway.start();

  auto run_client = [&](std::uint64_t session, bool wait_for_busy_worker) {
    if (wait_for_busy_worker)
      while (entered.load() == 0) std::this_thread::yield();
    TcpClient client;
    TcpClientConfig cc;
    cc.timeout_ms = 10'000.0;
    cc.session_id = session;
    client.connect(port, cc);
    obs::ScopedSpan root("request_root");
    const Blob payload{static_cast<std::uint8_t>(session)};
    EXPECT_EQ(client.call(payload), payload);
  };
  std::thread first([&] { run_client(1, false); });
  std::thread second([&] { run_client(2, true); });

  // Poll the live introspection snapshot while traffic is in flight — under
  // TSan this is the stats()-vs-reactor/worker race check.
  GatewayStats live;
  for (int i = 0; i < 50; ++i) {
    live = gateway.stats();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  first.join();
  second.join();
  live = gateway.stats();
  EXPECT_TRUE(live.running);
  EXPECT_EQ(live.admitted, 2u);
  EXPECT_EQ(live.completed, 2u);
  EXPECT_EQ(live.shed, 0u);
  gateway.stop();
  EXPECT_FALSE(gateway.stats().running);

  const ProfileReport report =
      obs::profile_spans(obs::MetricsRegistry::global().spans());
  // Both requests produce a gateway_queue span; the second one queued behind
  // a ~30 ms handler, so the longer wait is unambiguous.
  const CritNode* queue = nullptr;
  const TraceProfile* queued_trace = nullptr;
  for (const TraceProfile& t : report.traces)
    for (const CritNode& n : t.nodes)
      if (n.span.name == "gateway_queue" &&
          (queue == nullptr || n.span.wall_ms > queue->span.wall_ms)) {
        queue = &n;
        queued_trace = &t;
      }
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->span.wall_ms, 5.0);
  EXPECT_TRUE(queue->on_critical_path);
  ASSERT_GE(queue->parent, 0);
  EXPECT_EQ(queued_trace->nodes[queue->parent].span.name, "transport_call");

  // The wait hands off to execution: transport_serve starts at (or after)
  // the queue span's end on the sender's clock, i.e. they serialize.
  const CritNode* serve = find_node(*queued_trace, "transport_serve");
  ASSERT_NE(serve, nullptr);
  EXPECT_GE(serve->span.start_ms,
            queue->span.start_ms + queue->span.wall_ms - 1e-6);
  EXPECT_TRUE(serve->on_critical_path);
  EXPECT_EQ(queued_trace->root_name, "request_root");
  EXPECT_GT(report.by_name.at("gateway_queue").critical_self_ms, 0.0);
}

// The periodic exporter must tolerate concurrent metric writers and manual
// write_snapshot_now() calls, and leave a parseable JSONL file whose last
// block reflects the final counter values.
TEST(CritPath, SnapshotExporterLiveUnderConcurrentWrites) {
  ScopedMetrics scoped;
  const std::string path = temp_path("critpath_live_snapshots.jsonl");
  std::filesystem::remove(path);

  obs::SnapshotExporter::Options options;
  options.path = path;
  options.interval_ms = 2;
  obs::SnapshotExporter exporter(options);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    auto& reg = obs::MetricsRegistry::global();
    while (!stop.load()) {
      reg.counter("cadmc.test.ticks").add(1);
      reg.histogram("cadmc.test.wait_ms").observe(1.5);
      reg.gauge("cadmc.test.depth").set(3.0);
    }
  });
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(exporter.write_snapshot_now());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  mutator.join();
  const std::int64_t final_ticks =
      obs::MetricsRegistry::global().counter("cadmc.test.ticks").value();
  exporter.stop();  // writes the final snapshot; idempotent
  exporter.stop();
  EXPECT_GE(exporter.snapshots_written(), 11u);

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto events = obs::parse_jsonl(buffer.str());
  std::uint64_t heartbeats = 0;
  std::int64_t last_ticks = -1;
  for (const auto& e : events) {
    auto type = e.find("type");
    ASSERT_NE(type, e.end());
    if (type->second == "snapshot") {
      ++heartbeats;
      EXPECT_NE(e.find("seq"), e.end());
      EXPECT_NE(e.find("t_ms"), e.end());
    } else if (type->second == "counter" &&
               e.at("name") == "cadmc.test.ticks") {
      last_ticks = std::stoll(e.at("value"));
    }
  }
  EXPECT_EQ(heartbeats, exporter.snapshots_written());
  // The final (post-join) snapshot saw the settled counter value.
  EXPECT_EQ(last_ticks, final_ticks);
}

}  // namespace
}  // namespace cadmc::runtime
