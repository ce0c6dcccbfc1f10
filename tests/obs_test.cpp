// Observability tests: counter/gauge/histogram math (including quantile
// edges and 4-thread concurrent increments), span nesting with parent/child
// ids and modelled-ms fields, the disabled fast path, JSONL round-trip,
// report rendering, and the one span store (newest spans kept, overwrite
// counter, flight-only spans, reset).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "util/csv.h"

// Global allocation counter so a test can prove a code path allocates
// nothing. Replacing the global operator new is binary-wide, so the counter
// just ticks; behaviour is otherwise unchanged.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cadmc::obs {
namespace {

/// Turns collection on for a test and restores the previous state (the
/// global flag is process-wide).
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : prev_(enabled()) { set_enabled(on); }
  ~EnabledGuard() { set_enabled(prev_); }

 private:
  bool prev_;
};

/// The global registry, emptied for a test and again after it: producers
/// (ScopedSpan included) always record there.
struct FreshGlobal {
  FreshGlobal() { MetricsRegistry::global().reset(); }
  ~FreshGlobal() { MetricsRegistry::global().reset(); }
  MetricsRegistry& reg = MetricsRegistry::global();
};

TEST(Counter, AddAndReset) {
  MetricsRegistry reg;
  reg.counter("cadmc.test.hits").add(1);
  reg.counter("cadmc.test.hits").add(41);
  EXPECT_EQ(reg.counter("cadmc.test.hits").value(), 42);
  reg.counter("cadmc.test.hits").reset();
  EXPECT_EQ(reg.counter("cadmc.test.hits").value(), 0);
}

TEST(Counter, ConcurrentIncrementsFromFourThreads) {
  MetricsRegistry reg;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i)
        reg.counter("cadmc.test.concurrent").add(1);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("cadmc.test.concurrent").value(), 4 * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  MetricsRegistry reg;
  reg.gauge("cadmc.test.bw").set(3.5);
  reg.gauge("cadmc.test.bw").set(-1.25);
  EXPECT_DOUBLE_EQ(reg.gauge("cadmc.test.bw").value(), -1.25);
}

TEST(Histogram, CountSumMinMax) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("cadmc.test.lat");
  for (double v : {0.5, 0.9, 5.0, 50.0, 500.0}) h.observe(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 556.4);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 500.0);
}

TEST(Histogram, QuantileEdges) {
  MetricsRegistry reg;
  // Empty histogram: all zeros.
  const HistogramSnapshot empty = reg.histogram("cadmc.test.empty").snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.p90, 0.0);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);
  EXPECT_DOUBLE_EQ(empty.sum, 0.0);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  // The zeros (not NaN) matter downstream: a bare `nan` is not valid JSON.
  EXPECT_EQ(to_jsonl(reg).find("nan"), std::string::npos);
  // Single sample: every quantile equals it.
  Histogram& one = reg.histogram("cadmc.test.one");
  one.observe(7.25);
  const HistogramSnapshot s1 = one.snapshot();
  EXPECT_DOUBLE_EQ(s1.p50, 7.25);
  EXPECT_DOUBLE_EQ(s1.p90, 7.25);
  EXPECT_DOUBLE_EQ(s1.p99, 7.25);
  // Uniform 1..100: interpolated quantiles land where expected.
  Histogram& uni = reg.histogram("cadmc.test.uniform");
  for (int i = 100; i >= 1; --i) uni.observe(i);  // unsorted insertion order
  const HistogramSnapshot su = uni.snapshot();
  EXPECT_NEAR(su.p50, 50.5, 1e-9);
  EXPECT_NEAR(su.p90, 90.1, 1e-9);
  EXPECT_NEAR(su.p99, 99.01, 1e-9);
}

TEST(CsvEscape, KnownAnswers) {
  EXPECT_EQ(csv_escape("plain_name.v2"), "plain_name.v2");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(csv_escape(",\"\n"), "\",\"\"\n\"");
}

TEST(Span, NestingRecordsParentChildAndDepth) {
  EnabledGuard guard(true);
  FreshGlobal fresh;
  MetricsRegistry& reg = fresh.reg;
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
      inner.set_modelled_ms(12.5);
    }
  }
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_DOUBLE_EQ(spans[0].modelled_ms, 12.5);
  EXPECT_GE(spans[1].wall_ms, spans[0].wall_ms);
  // Wall durations feed the per-name span histograms.
  EXPECT_EQ(reg.histogram("cadmc.span.inner").snapshot().count, 1u);
}

TEST(Span, DisabledIsInert) {
  EnabledGuard guard(false);
  FreshGlobal fresh;
  MetricsRegistry& reg = fresh.reg;
  {
    ScopedSpan span("ghost");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_TRUE(reg.histogram_values().empty());
}

TEST(Helpers, GatedByEnabledFlag) {
  // Helpers write to the global registry only while enabled.
  MetricsRegistry::global().reset();
  {
    EnabledGuard off(false);
    count("cadmc.test.gated");
    observe("cadmc.test.gated_ms", 5.0);
    set_gauge("cadmc.test.gated_gauge", 1.0);
  }
  EXPECT_TRUE(MetricsRegistry::global().counter_values().empty());
  {
    EnabledGuard on(true);
    count("cadmc.test.gated", 3);
    observe("cadmc.test.gated_ms", 5.0);
  }
  EXPECT_EQ(MetricsRegistry::global().counter("cadmc.test.gated").value(), 3);
  MetricsRegistry::global().reset();
}

TEST(Helpers, DisabledCallsAllocateNothing) {
  // Producers call the helpers unguarded, so a disabled call must not turn
  // its name (longer than any small-string buffer here) into a std::string.
  EnabledGuard off(false);
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    count("cadmc.test.a_counter_name_past_the_sso_buffer");
    observe("cadmc.test.a_histogram_name_past_the_sso_buffer", 1.0);
    set_gauge("cadmc.test.a_gauge_name_past_the_sso_buffer", 1.0);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

TEST(Export, JsonlRoundTrip) {
  EnabledGuard guard(true);
  MetricsRegistry reg;
  reg.counter("cadmc.test.count").add(7);
  reg.gauge("cadmc.test.gauge").set(2.5);
  reg.histogram("cadmc.test.hist").observe(10.0);
  reg.histogram("cadmc.test.hist").observe(20.0);
  // Nested spans in two traces, in close order (children first), with
  // binary-exact times so every rendered digit must survive the stream.
  const auto span = [&](const char* name, std::uint64_t id,
                        std::uint64_t parent, std::uint64_t trace, int depth,
                        double start_ms, double wall_ms, double modelled_ms) {
    SpanRecord s;
    s.name = name;
    s.id = id;
    s.parent_id = parent;
    s.trace_id = trace;
    s.depth = depth;
    s.start_ms = start_ms;
    s.wall_ms = wall_ms;
    s.modelled_ms = modelled_ms;
    reg.record_span(std::move(s));
  };
  span("edge", 2, 1, 7, 1, 10.5, 3.0, 2.25);
  span("kernel", 4, 3, 7, 2, 14.5, 2.0, -1.0);
  span("stage \"x\"", 3, 1, 7, 1, 14.0, 4.0, -1.0);
  span("frame", 1, 0, 7, 0, 10.0, 8.0, 6.5);
  span("edge", 6, 5, 9, 1, 20.5, 2.5, 1.25);
  span("frame", 5, 0, 9, 0, 20.0, 6.0, -1.0);

  const std::string jsonl = to_jsonl(reg);
  const auto events = parse_jsonl(jsonl);
  // counter + gauge + hist + 4 span hists + 6 spans
  ASSERT_EQ(events.size(), 13u);

  const RunReport report = report_from_events(events);
  EXPECT_EQ(report.counters.at("cadmc.test.count"), 7);
  EXPECT_DOUBLE_EQ(report.gauges.at("cadmc.test.gauge"), 2.5);
  const HistogramSnapshot& h = report.histograms.at("cadmc.test.hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 30.0);
  EXPECT_DOUBLE_EQ(h.p50, 15.0);
  // The escaped span name survives the round trip.
  ASSERT_TRUE(report.profile.by_name.count("stage \"x\""));
  EXPECT_EQ(report.profile.by_name.at("stage \"x\"").count, 1u);
  ASSERT_EQ(report.profile.traces.size(), 2u);
  EXPECT_EQ(report.profile.traces[0].root_name, "frame");
  EXPECT_DOUBLE_EQ(report.profile.traces[0].root_wall_ms, 8.0);
  EXPECT_DOUBLE_EQ(report.profile.traces[0].total_wall_ms, 17.0);

  // And the regenerated report renders exactly like the direct snapshot.
  const RunReport direct = make_report(reg);
  EXPECT_EQ(direct.counters, report.counters);
  EXPECT_EQ(render_report(direct), render_report(report));
  const std::string text = render_report(report);
  EXPECT_NE(text.find("|     kernel"), std::string::npos);  // depth 2
  EXPECT_NE(text.find("| 9     | 2     | frame | 6.000   | 8.500    |"),
            std::string::npos);
}

TEST(Export, ExportJsonlWritesFile) {
  EnabledGuard guard(true);
  MetricsRegistry reg;
  reg.counter("cadmc.test.file").add(1);
  const std::string path = ::testing::TempDir() + "cadmc_obs_test.jsonl";
  ASSERT_TRUE(export_jsonl(reg, path));
  std::string text;
  ASSERT_TRUE(util::read_file(path, text));
  const auto events = parse_jsonl(text);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("type"), "counter");
  EXPECT_EQ(events[0].at("name"), "cadmc.test.file");
  EXPECT_EQ(events[0].at("value"), "1");
}

TEST(Export, RenderReportMentionsEveryMetric) {
  EnabledGuard guard(true);
  FreshGlobal fresh;
  MetricsRegistry& reg = fresh.reg;
  reg.counter("cadmc.area.hits").add(2);
  reg.gauge("cadmc.area.level").set(0.5);
  reg.histogram("cadmc.area.ms").observe(1.0);
  { ScopedSpan span("stagename"); }
  const std::string text = render_report(make_report(reg));
  EXPECT_NE(text.find("cadmc.area.hits"), std::string::npos);
  EXPECT_NE(text.find("cadmc.area.level"), std::string::npos);
  EXPECT_NE(text.find("cadmc.area.ms"), std::string::npos);
  EXPECT_NE(text.find("stagename"), std::string::npos);
}

TEST(Export, EmptyRegistryRendersPlaceholder) {
  MetricsRegistry reg;
  EXPECT_NE(render_report(make_report(reg)).find("no metrics"),
            std::string::npos);
}

TEST(Span, DisabledSpanCostsNoAllocationOrBookkeeping) {
  // The zero-cost guarantee hot paths rely on: while collection AND flight
  // recording are both off, CADMC_SPAN must not allocate (its name stays a
  // const char*, no std::string is materialised) and must not touch the
  // span stack or mint ids.
  EnabledGuard guard(false);
  const bool was_flight = flight_recording();
  set_flight_recording(false);
  {
    ScopedSpan probe("probe");
    EXPECT_FALSE(probe.active());
    EXPECT_EQ(probe.id(), 0u);
    EXPECT_EQ(probe.trace_id(), 0u);
  }
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    CADMC_SPAN("zero_cost");
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
  set_flight_recording(was_flight);
}

TEST(Registry, ResetDropsEverything) {
  EnabledGuard guard(true);
  FreshGlobal fresh;
  MetricsRegistry& reg = fresh.reg;
  reg.counter("a").add(1);
  reg.gauge("b").set(1.0);
  reg.histogram("c").observe(1.0);
  { ScopedSpan span("d"); }
  reg.reset();
  EXPECT_TRUE(reg.counter_values().empty());
  EXPECT_TRUE(reg.gauge_values().empty());
  EXPECT_TRUE(reg.histogram_values().empty());
  EXPECT_TRUE(reg.spans().empty());
}

// The one span store: the registry's ring keeps the newest kMaxSpans spans
// and counts the ones it overwrote.
TEST(SpanStore, KeepsNewestSpansAndCountsOverwrites) {
  EnabledGuard guard(false);  // no span histograms: only the ring matters
  MetricsRegistry reg;
  constexpr std::uint64_t kExtra = 7;
  const auto record = [&](std::uint64_t id) {
    SpanRecord s;
    s.id = id;
    s.trace_id = 1;
    s.name = "s";
    s.start_ms = static_cast<double>(id);
    reg.record_span(s);
  };
  for (std::uint64_t id = 1; id <= MetricsRegistry::kMaxSpans; ++id)
    record(id);
  // A full ring has overwritten nothing, so no counter shows.
  EXPECT_TRUE(reg.counter_values().empty());
  for (std::uint64_t i = 1; i <= kExtra; ++i)
    record(MetricsRegistry::kMaxSpans + i);

  const std::vector<SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), MetricsRegistry::kMaxSpans);
  for (std::size_t i = 0; i < spans.size(); ++i)
    ASSERT_EQ(spans[i].id, kExtra + 1 + i) << "record order at " << i;
  const auto counters = reg.counter_values();
  ASSERT_EQ(counters.count("cadmc.obs.spans_overwritten"), 1u);
  EXPECT_EQ(counters.at("cadmc.obs.spans_overwritten"),
            static_cast<std::int64_t>(kExtra));
  // The exporters print it like any counter.
  EXPECT_NE(to_jsonl(reg).find("\"name\":\"cadmc.obs.spans_overwritten\","
                               "\"value\":7"),
            std::string::npos);

  reg.reset();
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_TRUE(reg.counter_values().empty());
  record(1);
  EXPECT_EQ(reg.spans().size(), 1u);
}

TEST(SpanStore, FlightRecordingAloneFillsSpansWithoutHistograms) {
  EnabledGuard guard(false);
  FreshGlobal fresh;
  const bool was_flight = flight_recording();
  set_flight_recording(true);
  { ScopedSpan span("flight_only"); }
  set_flight_recording(was_flight);
  const auto spans = fresh.reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "flight_only");
  EXPECT_TRUE(fresh.reg.histogram_values().empty());
}

TEST(SpanStore, SpansSkipPointEventsAndResetEmptiesTheRing) {
  EnabledGuard guard(true);
  FreshGlobal fresh;
  FlightRecorder& ring = FlightRecorder::global();
  EXPECT_EQ(&ring, &fresh.reg.ring());
  { ScopedSpan span("metrics_span"); }
  ring.record(FlightEventKind::kFault, "deadline_miss", 0, 0, 0, 1.0, 0.0);
  ring.record(FlightEventKind::kBreaker, "breaker_open", 0, 0, 0, 2.0, 0.0);
  EXPECT_EQ(ring.snapshot().size(), 3u);
  const auto spans = fresh.reg.spans();
  ASSERT_EQ(spans.size(), 1u);  // the point events are not spans
  EXPECT_EQ(spans[0].name, "metrics_span");

  fresh.reg.reset();
  EXPECT_TRUE(ring.snapshot().empty());  // point events went too
  EXPECT_EQ(ring.recorded(), 0u);
  { ScopedSpan span("after_reset"); }
  ASSERT_EQ(fresh.reg.spans().size(), 1u);
  EXPECT_EQ(fresh.reg.spans()[0].name, "after_reset");
}

}  // namespace
}  // namespace cadmc::obs
