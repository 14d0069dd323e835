#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/constants.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/sysinfo.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace scod {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, -5.0, 6.0};
  EXPECT_EQ(a + b, Vec3(5.0, -3.0, 9.0));
  EXPECT_EQ(a - b, Vec3(-3.0, 7.0, -3.0));
  EXPECT_EQ(a * 2.0, Vec3(2.0, 4.0, 6.0));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, Vec3(-1.0, -2.0, -3.0));
  EXPECT_DOUBLE_EQ(a.dot(b), 4.0 - 10.0 + 18.0);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-2.0, 0.5, 4.0};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
  EXPECT_EQ(Vec3(1, 0, 0).cross(Vec3(0, 1, 0)), Vec3(0, 0, 1));
}

TEST(Vec3, NormAndDistance) {
  const Vec3 v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(v.normalized().norm(), 1.0);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
  EXPECT_DOUBLE_EQ(Vec3(1, 1, 1).distance(Vec3(1, 1, 3)), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(5);
  int histogram[10] = {};
  for (int i = 0; i < 10000; ++i) {
    const auto idx = rng.uniform_index(10);
    ASSERT_LT(idx, 10u);
    ++histogram[idx];
  }
  for (int h : histogram) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.gaussian(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RunningStats, Basics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Histogram2D, CountsAndClamping) {
  Histogram2D h(0.0, 10.0, 5, 0.0, 1.0, 4);
  h.add(1.0, 0.1);    // bin (0, 0)
  h.add(9.9, 0.99);   // bin (4, 3)
  h.add(-5.0, 2.0);   // clamped to (0, 3)
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.at(0, 0), 1u);
  EXPECT_EQ(h.at(4, 3), 1u);
  EXPECT_EQ(h.at(0, 3), 1u);
  EXPECT_EQ(h.max_count(), 1u);
  EXPECT_DOUBLE_EQ(h.x_bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.y_bin_center(3), 0.875);
}

TEST(Histogram2D, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram2D(0, 1, 0, 0, 1, 4), std::invalid_argument);
  EXPECT_THROW(Histogram2D(1, 1, 4, 0, 1, 4), std::invalid_argument);
}

TEST(CliArgs, ParsesAllForms) {
  const char* argv[] = {"prog", "--count", "42", "--name=xyz", "--flag", "--ratio", "2.5"};
  CliArgs args(7, argv, {"count", "name", "flag", "ratio"});
  EXPECT_EQ(args.get_int("count", 0), 42);
  EXPECT_EQ(args.get_string("name", ""), "xyz");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_TRUE(args.unknown().empty());
}

TEST(CliArgs, CollectsUnknownOptions) {
  const char* argv[] = {"prog", "--nope", "1", "stray"};
  CliArgs args(4, argv, {"count"});
  ASSERT_EQ(args.unknown().size(), 2u);
  EXPECT_EQ(args.unknown()[0], "--nope");
  EXPECT_EQ(args.unknown()[1], "stray");
}

TEST(CliArgs, ParsesIntegerLists) {
  const char* argv[] = {"prog", "--sizes", "1000,2000,4000"};
  CliArgs args(3, argv, {"sizes"});
  EXPECT_EQ(args.get_int_list("sizes", {}), (std::vector<std::int64_t>{1000, 2000, 4000}));
  EXPECT_EQ(args.get_int_list("other", {5}), (std::vector<std::int64_t>{5}));
}

/// The message of the std::invalid_argument `fn` throws, or "" if none.
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, NumericErrorsNameTheOption) {
  const char* argv[] = {"prog", "--count", "abc", "--ratio", "x1", "--sizes", "1,b"};
  CliArgs args(7, argv, {"count", "ratio", "sizes"});
  const std::string count = invalid_argument_message([&] { args.get_int("count", 0); });
  EXPECT_NE(count.find("--count"), std::string::npos) << count;
  EXPECT_NE(count.find("'abc'"), std::string::npos) << count;
  const std::string ratio =
      invalid_argument_message([&] { args.get_double("ratio", 0.0); });
  EXPECT_NE(ratio.find("--ratio"), std::string::npos) << ratio;
  const std::string sizes =
      invalid_argument_message([&] { args.get_int_list("sizes", {}); });
  EXPECT_NE(sizes.find("--sizes"), std::string::npos) << sizes;
  EXPECT_NE(sizes.find("'b'"), std::string::npos) << sizes;
}

TEST(CliArgs, NumericValuesMustBeConsumedWhole) {
  const char* argv[] = {"prog", "--count", "12x", "--ratio", "2.5km", "--big",
                        "99999999999999999999", "--neg", "-3", "--exp", "1e3"};
  CliArgs args(11, argv, {"count", "ratio", "big", "neg", "exp"});
  EXPECT_THROW(args.get_int("count", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("ratio", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_int("big", 0), std::invalid_argument);  // out of range
  EXPECT_EQ(args.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("exp", 0.0), 1000.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"x", TextTable::num(1.5, 2)});
  table.add_row({"longer", TextTable::integer(42)});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 42    |"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(CsvWriter, WritesAndEscapes) {
  const std::string path = testing::TempDir() + "/scod_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"1", "he,llo"});
    EXPECT_THROW(csv.add_row({"only-one"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"he,llo\"");
  std::remove(path.c_str());
}

TEST(CsvEscape, QuotesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.seconds(), 0.0);
  watch.restart();
  EXPECT_LT(watch.seconds(), 1.0);
}

TEST(SystemInfo, QueriesHost) {
  const SystemInfo info = query_system_info();
  EXPECT_GE(info.logical_cpus, 1u);
  EXPECT_GT(info.memory_gib, 0.0);
  EXPECT_FALSE(info.os.empty());
}

TEST(Log, LevelIsProcessGlobalAndFilters) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped before formatting; these calls
  // must be cheap no-ops rather than crashes.
  log_debug("dropped ", 1);
  log_info("dropped ", 2.5);
  log_warn("dropped ", "three");
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(original);
}

TEST(Constants, PhysicallyConsistent) {
  EXPECT_GT(kGeoSemiMajorAxis, kEarthRadius);
  EXPECT_GT(kSimulationHalfExtent, kGeoSemiMajorAxis - 1000.0);
  EXPECT_NEAR(kTwoPi, 2.0 * kPi, 1e-15);
}

}  // namespace
}  // namespace scod
