// Unit tests for src/util: RNG determinism, statistics, fitting, CSV,
// tables, string helpers, the thread pool and the sharded cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "util/csv.h"
#include "util/rng.h"
#include "util/sharded_cache.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace cadmc::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 500; ++i) seen[rng.uniform_index(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= v == -2;
    hi |= v == 2;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(12);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(13);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, QuantileUnsortedInput) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Ema, FirstSampleInitializes) {
  Ema ema(0.5);
  EXPECT_FALSE(ema.initialized());
  EXPECT_DOUBLE_EQ(ema.update(10.0), 10.0);
  EXPECT_TRUE(ema.initialized());
}

TEST(Ema, Smooths) {
  Ema ema(0.5);
  ema.update(0.0);
  EXPECT_DOUBLE_EQ(ema.update(10.0), 5.0);
  EXPECT_DOUBLE_EQ(ema.update(10.0), 7.5);
}

TEST(Ema, ResetClears) {
  Ema ema(0.5);
  ema.update(3.0);
  ema.reset();
  EXPECT_FALSE(ema.initialized());
}

TEST(LinearFit, RecoversExactLine) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 3.0, 5.0, 7.0};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHighR2) {
  Rng rng(5);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = i * 0.1;
    xs.push_back(x);
    ys.push_back(3.0 * x + 2.0 + rng.normal(0.0, 0.1));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.05);
  EXPECT_NEAR(fit.intercept, 2.0, 0.1);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(RSquared, PerfectPrediction) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r_squared(y, y), 1.0);
}

TEST(RSquared, MeanPredictionIsZero) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  const std::vector<double> p{2.0, 2.0, 2.0};
  EXPECT_NEAR(r_squared(y, p), 0.0, 1e-12);
}

TEST(Accumulator, TracksMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(Accumulator, StddevSurvivesLargeMeanSmallVariance) {
  // Latency-shaped series: huge mean, tiny spread. The old sum-of-squares
  // formula lost every significant bit here and reported 0.
  Accumulator acc;
  for (double v : {1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0}) acc.add(v);
  EXPECT_NEAR(acc.mean(), 1e9 + 2.0, 1e-3);
  EXPECT_NEAR(acc.stddev(), std::sqrt(2.0 / 3.0), 1e-6);
}

TEST(ThreadPool, ParseThreadCountAcceptsStrictIntegers) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("128"), 128u);
  EXPECT_EQ(parse_thread_count("4096"), kMaxThreadCount);
}

TEST(ThreadPool, ParseThreadCountRejectsEverythingElse) {
  // std::stoll used to accept "4x" as 4 and leading whitespace/sign; the
  // strict parser rejects all of these.
  EXPECT_EQ(parse_thread_count(""), std::nullopt);
  EXPECT_EQ(parse_thread_count("0"), std::nullopt);
  EXPECT_EQ(parse_thread_count("4x"), std::nullopt);
  EXPECT_EQ(parse_thread_count("x4"), std::nullopt);
  EXPECT_EQ(parse_thread_count(" 4"), std::nullopt);
  EXPECT_EQ(parse_thread_count("4 "), std::nullopt);
  EXPECT_EQ(parse_thread_count("-3"), std::nullopt);
  EXPECT_EQ(parse_thread_count("+3"), std::nullopt);
  EXPECT_EQ(parse_thread_count("3.5"), std::nullopt);
  EXPECT_EQ(parse_thread_count("4097"), std::nullopt);  // > kMaxThreadCount
  EXPECT_EQ(parse_thread_count("99999999999999999999"), std::nullopt);  // overflow
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  const std::size_t saved = configured_threads();
  set_configured_threads(4);
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  set_configured_threads(saved);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  const std::size_t saved = configured_threads();
  set_configured_threads(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                              completed.fetch_add(1);
                            }),
               std::runtime_error);
  set_configured_threads(saved);
  EXPECT_EQ(completed.load(), 63);  // the loop drains before rethrowing
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  const std::size_t saved = configured_threads();
  set_configured_threads(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  set_configured_threads(saved);
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SerialWhenConfiguredSingleThreaded) {
  const std::size_t saved = configured_threads();
  set_configured_threads(1);
  const auto main_thread = std::this_thread::get_id();
  parallel_for(16, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), main_thread);
  });
  set_configured_threads(saved);
}

TEST(ShardedCache, InsertOnceFindEverywhere) {
  ShardedCache<double> cache;
  EXPECT_FALSE(cache.find("a").has_value());
  EXPECT_TRUE(cache.insert("a", 1.5));
  EXPECT_FALSE(cache.insert("a", 9.9));  // first write wins
  ASSERT_TRUE(cache.find("a").has_value());
  EXPECT_DOUBLE_EQ(*cache.find("a"), 1.5);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedCache, Fnv1a64IsStable) {
  // The evaluator derives realization seeds from this hash; pin the value.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Csv, RoundTrip) {
  CsvWriter csv({"a", "b"});
  csv.add_row(std::vector<std::string>{"1", "x"});
  csv.add_row(std::vector<double>{2.5, 3.5});
  const auto rows = parse_csv(csv.to_string());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[1][1], "x");
  EXPECT_EQ(rows[2][0], "2.5");
}

TEST(Csv, SaveAndReadFile) {
  CsvWriter csv({"v"});
  csv.add_row(std::vector<double>{42.0});
  const std::string path = "/tmp/cadmc_csv_test.csv";
  ASSERT_TRUE(csv.save(path));
  std::string text;
  ASSERT_TRUE(read_file(path, text));
  EXPECT_NE(text.find("42"), std::string::npos);
}

TEST(Csv, ReadMissingFileFails) {
  std::string text;
  EXPECT_FALSE(read_file("/tmp/definitely_missing_cadmc.csv", text));
}

TEST(Table, RendersAllCells) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Sparkline, LengthMatchesInput) {
  const std::string s = sparkline({1.0, 2.0, 3.0});
  // Each bar is a 3-byte UTF-8 glyph.
  EXPECT_EQ(s.size(), 9u);
}

TEST(Sparkline, EmptyInput) { EXPECT_EQ(sparkline({}), ""); }

TEST(AsciiChart, ContainsMarks) {
  std::vector<double> ys;
  for (int i = 0; i < 100; ++i) ys.push_back(std::sin(i * 0.1));
  const std::string chart = ascii_chart(ys, 8, 40);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(StringUtil, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "-"), "x-y");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("conv,3", "conv"));
  EXPECT_FALSE(starts_with("fc", "conv"));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(StringUtil, FnvDeterministicAndSpreads) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

}  // namespace
}  // namespace cadmc::util
