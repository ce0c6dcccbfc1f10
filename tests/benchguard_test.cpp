// Perf-regression guard suite (`ctest -L obs`): PerfStats measurement and
// JSON round-trip, and the --compare verdict logic — a synthetic 2x p50
// slowdown must be flagged, noise inside the threshold must not.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "bench/perf_core.h"

namespace cadmc::bench {
namespace {

std::string temp_dir(const std::string& leaf) {
  const std::string dir = std::string(::testing::TempDir()) + leaf;
  std::filesystem::create_directories(dir);
  return dir;
}

PerfStats make_stats(const std::string& name, double p50) {
  PerfStats stats;
  stats.name = name;
  stats.unit = "us";
  stats.repetitions = 10;
  stats.warmup = 2;
  stats.p50 = p50;
  stats.p90 = p50 * 1.2;
  stats.p99 = p50 * 1.5;
  stats.mean = p50 * 1.1;
  stats.min = p50 * 0.9;
  stats.max = p50 * 2.0;
  stats.throughput_per_s = 1e6 / p50;
  return stats;
}

TEST(PerfMeasure, ProducesOrderedQuantiles) {
  int calls = 0;
  const PerfStats stats = measure("noop", 3, 20, [&] { ++calls; });
  EXPECT_EQ(calls, 23);  // warmup + repetitions
  EXPECT_EQ(stats.repetitions, 20);
  EXPECT_GE(stats.p90, stats.p50);
  EXPECT_GE(stats.p99, stats.p90);
  EXPECT_GE(stats.max, stats.min);
  EXPECT_GT(stats.throughput_per_s, 0.0);
}

TEST(PerfJson, RoundTripsThroughFile) {
  const std::string dir = temp_dir("cadmc_benchguard_roundtrip");
  const PerfStats original = make_stats("roundtrip_bench", 123.456);
  ASSERT_TRUE(write_perf_json(dir, original));
  PerfStats loaded;
  ASSERT_TRUE(load_perf_json(dir + "/BENCH_roundtrip_bench.json", loaded));
  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.unit, original.unit);
  EXPECT_EQ(loaded.repetitions, original.repetitions);
  EXPECT_NEAR(loaded.p50, original.p50, 1e-3);
  EXPECT_NEAR(loaded.p99, original.p99, 1e-3);
  EXPECT_NEAR(loaded.throughput_per_s, original.throughput_per_s, 1.0);
  std::filesystem::remove_all(dir);
}

TEST(PerfJson, LoadRejectsMissingAndForeignFiles) {
  PerfStats stats;
  EXPECT_FALSE(load_perf_json("/nonexistent/BENCH_x.json", stats));
  const std::string dir = temp_dir("cadmc_benchguard_foreign");
  const std::string path = dir + "/BENCH_foreign.json";
  {
    std::ofstream out(path);
    out << "{\"type\":\"counter\",\"name\":\"not_a_bench\",\"value\":1}\n";
  }
  EXPECT_FALSE(load_perf_json(path, stats));
  std::filesystem::remove_all(dir);
}

/// The acceptance check: a synthetic 2x slowdown against the baseline must
/// be reported as a regression; noise inside the threshold must not.
TEST(PerfCompare, FlagsSyntheticTwoXSlowdown) {
  const std::string baseline = temp_dir("cadmc_benchguard_baseline");
  ASSERT_TRUE(write_perf_json(baseline, make_stats("slowed", 100.0)));
  ASSERT_TRUE(write_perf_json(baseline, make_stats("steady", 100.0)));

  const std::vector<PerfStats> current = {
      make_stats("slowed", 200.0),  // 2x slower -> regression
      make_stats("steady", 110.0),  // +10% -> inside the 15% budget
      make_stats("brand_new", 50.0)  // no baseline yet -> not a regression
  };
  const auto results = compare_perf(current, baseline, 0.15);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_EQ(results[0].name, "slowed");
  EXPECT_TRUE(results[0].regressed);
  EXPECT_NEAR(results[0].ratio, 2.0, 1e-6);

  EXPECT_EQ(results[1].name, "steady");
  EXPECT_FALSE(results[1].regressed);
  EXPECT_NEAR(results[1].ratio, 1.1, 1e-6);

  EXPECT_EQ(results[2].name, "brand_new");
  EXPECT_TRUE(results[2].missing_baseline);
  EXPECT_FALSE(results[2].regressed);
  std::filesystem::remove_all(baseline);
}

TEST(PerfCompare, SpeedupsAndExactMatchesPass) {
  const std::string baseline = temp_dir("cadmc_benchguard_speedup");
  ASSERT_TRUE(write_perf_json(baseline, make_stats("fast", 100.0)));
  const auto results =
      compare_perf({make_stats("fast", 50.0)}, baseline, 0.15);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].regressed);
  EXPECT_NEAR(results[0].ratio, 0.5, 1e-6);
  std::filesystem::remove_all(baseline);
}

/// End-to-end: run the real suite (cheapest benchmark only), then compare
/// against doctored baselines. Each re-run re-measures ~8 ns items, so the
/// baselines sit a factor of 100 away from the measurement on either side:
/// host load cannot flip either verdict.
TEST(PerfSuite, EndToEndCompareExitCodes) {
  const std::string out = temp_dir("cadmc_benchguard_suite_out");
  const std::string baseline = temp_dir("cadmc_benchguard_suite_base");

  PerfSuiteConfig config;
  config.repetitions = 5;
  config.warmup = 1;
  config.filter = "span_overhead_disabled";
  config.out_dir = out;
  config.quiet = true;
  // Generous threshold: this asserts the verdict plumbing, not machine noise.
  config.threshold = 0.5;
  ASSERT_EQ(run_perf_suite(config), 0);

  PerfStats measured;
  ASSERT_TRUE(load_perf_json(out + "/BENCH_span_overhead_disabled.json",
                             measured));
  ASSERT_GT(measured.p50, 0.0);

  // Baseline claiming we used to be 100x faster -> the re-run regresses.
  PerfStats faster = measured;
  faster.p50 = measured.p50 / 100.0;
  ASSERT_TRUE(write_perf_json(baseline, faster));
  config.compare_dir = baseline;
  EXPECT_EQ(run_perf_suite(config), 1);

  // Baseline claiming we used to be 100x slower -> clean exit.
  PerfStats slower = measured;
  slower.p50 = measured.p50 * 100.0;
  ASSERT_TRUE(write_perf_json(baseline, slower));
  EXPECT_EQ(run_perf_suite(config), 0);

  std::filesystem::remove_all(out);
  std::filesystem::remove_all(baseline);
}

TEST(PerfSuite, CreatesMissingOutDir) {
  const std::string root = temp_dir("cadmc_benchguard_new_out");
  const std::string out = root + "/not/yet/there";
  ASSERT_FALSE(std::filesystem::exists(out));
  PerfSuiteConfig config;
  config.repetitions = 2;
  config.warmup = 0;
  config.filter = "span_overhead_disabled";
  config.out_dir = out;
  config.quiet = true;
  EXPECT_EQ(run_perf_suite(config), 0);
  EXPECT_TRUE(
      std::filesystem::exists(out + "/BENCH_span_overhead_disabled.json"));
  std::filesystem::remove_all(root);
}

TEST(PerfSuite, UncreatableOutDirFailsBeforeRunning) {
  // A regular file where a parent directory should be: create_directories
  // fails, and the suite exits 2 before it measures anything.
  const std::string root = temp_dir("cadmc_benchguard_blocked_out");
  const std::string file = root + "/file";
  std::ofstream(file) << "x";
  PerfSuiteConfig config;
  config.filter = "span_overhead_disabled";
  config.out_dir = file + "/sub";
  config.quiet = true;
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_perf_suite(config), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("cannot create"),
            std::string::npos);
  std::filesystem::remove_all(root);
}

TEST(PerfSuite, UnknownFilterFailsLoudly) {
  PerfSuiteConfig config;
  config.filter = "no_such_benchmark";
  config.out_dir = std::string(::testing::TempDir());
  config.quiet = true;
  EXPECT_EQ(run_perf_suite(config), 2);
}

}  // namespace
}  // namespace cadmc::bench
