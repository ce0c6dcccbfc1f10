// Compiled with -DCADMC_OBS_DISABLED (see tests/CMakeLists.txt): proves the
// CADMC_SPAN macro and the obs convenience helpers compile away entirely —
// no span is recorded even when collection is switched on at runtime, which
// is the guarantee hot paths like runtime/transport.cpp rely on when the
// whole build is configured with -DCADMC_OBS_DISABLED=ON.
#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cadmc::obs {
namespace {

double instrumented_hot_path(int iterations) {
  double acc = 0.0;
  for (int i = 0; i < iterations; ++i) {
    CADMC_SPAN("disabled_span");
    count("cadmc.test.disabled_counter");
    observe("cadmc.test.disabled_histogram", 1.0);
    acc += static_cast<double>(i);
  }
  return acc;
}

TEST(ObsDisabled, SpanMacroCompilesOut) {
  set_enabled(true);  // even with collection on, the macro is gone
  MetricsRegistry::global().reset();
  EXPECT_EQ(instrumented_hot_path(100), 4950.0);
  EXPECT_TRUE(MetricsRegistry::global().spans().empty());
  EXPECT_EQ(
      MetricsRegistry::global().counter("cadmc.test.disabled_counter").value(),
      0);
  set_enabled(false);
}

TEST(ObsDisabled, ExportersStillWorkOnSavedStreams) {
  // The exporters are data-path code, not instrumentation: they must keep
  // working in a CADMC_OBS_DISABLED build (e.g. `cadmc report` on a stream
  // captured by an instrumented build).
  const auto events = parse_jsonl(
      "{\"type\":\"span\",\"name\":\"frame\",\"id\":1,\"parent\":0,"
      "\"trace\":9,\"depth\":0,\"start_ms\":1,\"wall_ms\":2,"
      "\"modelled_ms\":-1}\n");
  ASSERT_EQ(events.size(), 1u);
  const RunReport report = report_from_events(events);
  ASSERT_EQ(report.profile.traces.size(), 1u);
  EXPECT_EQ(report.profile.traces[0].trace_id, 9u);
  EXPECT_EQ(report.profile.traces[0].root_name, "frame");
}

}  // namespace
}  // namespace cadmc::obs
