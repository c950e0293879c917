#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace robmon::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() != b.next()) ++differences;
  }
  EXPECT_GT(differences, 60);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(StatsTest, RunningBasics) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, MergeMatchesCombined) {
  RunningStats left;
  RunningStats right;
  RunningStats combined;
  for (int i = 0; i < 10; ++i) {
    left.add(i);
    combined.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    right.add(i * 1.5);
    combined.add(i * 1.5);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(StatsTest, MergeWithEmpty) {
  RunningStats stats;
  stats.add(5.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 1u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(StatsTest, SamplesPercentiles) {
  Samples samples;
  for (int i = 1; i <= 100; ++i) samples.add(i);
  EXPECT_DOUBLE_EQ(samples.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(samples.percentile(100), 100.0);
  EXPECT_NEAR(samples.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(samples.mean(), 50.5, 1e-9);
}

TEST(StatsTest, EmptySamplesSafe) {
  Samples samples;
  EXPECT_DOUBLE_EQ(samples.mean(), 0.0);
  EXPECT_DOUBLE_EQ(samples.percentile(50), 0.0);
  EXPECT_TRUE(samples.empty());
}

TEST(StatsTest, HistogramBuckets) {
  Histogram hist(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) hist.add(i + 0.5);
  hist.add(-1.0);  // underflow
  hist.add(42.0);  // overflow
  EXPECT_EQ(hist.total(), 12u);
  const std::string rendered = hist.render();
  EXPECT_NE(rendered.find("underflow: 1"), std::string::npos);
  EXPECT_NE(rendered.find("overflow: 1"), std::string::npos);
}

TEST(FlagsTest, ParsesTypedValues) {
  Flags flags;
  flags.define("name", "default", "a string");
  flags.define("count", "3", "an int");
  flags.define("ratio", "0.5", "a double");
  flags.define("verbose", "false", "a bool");
  const char* argv[] = {"prog", "--name=hello", "--count=42",
                        "--ratio=2.25", "--verbose"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.str("name"), "hello");
  EXPECT_EQ(flags.i64("count"), 42);
  EXPECT_DOUBLE_EQ(flags.f64("ratio"), 2.25);
  EXPECT_TRUE(flags.boolean("verbose"));
}

TEST(FlagsTest, DefaultsSurviveWhenUnset) {
  Flags flags;
  flags.define("x", "7", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.i64("x"), 7);
}

TEST(FlagsTest, UnknownFlagRejected) {
  Flags flags;
  flags.define("x", "7", "");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, PositionalCollected) {
  Flags flags;
  flags.define("x", "7", "");
  const char* argv[] = {"prog", "file1", "--x=2", "file2"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1");
  EXPECT_EQ(flags.positional()[1], "file2");
}

TEST(FlagsTest, PositiveListRejectsAnythingButPositiveDigits) {
  const auto list = [](const char* value) {
    Flags flags;
    flags.define("list", "1", "");
    const std::string arg = std::string("--list=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(flags.parse(2, const_cast<char**>(argv)));
    return flags.positive_list("list");
  };
  // "-1" would wrap to 2^64 - 1 under std::stoul.
  for (const char* bad : {"-1", "+8", " 8", "8 ", "abc", "0", "", "1,,8",
                          "8,", "1,-1", "99999999999999999999999"}) {
    EXPECT_FALSE(list(bad).has_value()) << "accepted '" << bad << "'";
  }
  const std::optional<std::vector<std::size_t>> good = list("1,8,64");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(*good, (std::vector<std::size_t>{1, 8, 64}));
}

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now_ns(), 100);
  EXPECT_EQ(clock.advance(50), 150);
  EXPECT_EQ(clock.now_ns(), 150);
  clock.set(1000);
  EXPECT_EQ(clock.now_ns(), 1000);
}

TEST(ClockTest, SteadyClockMonotone) {
  SteadyClock& clock = SteadyClock::instance();
  const TimeNs a = clock.now_ns();
  const TimeNs b = clock.now_ns();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace robmon::util
