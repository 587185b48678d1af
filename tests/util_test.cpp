#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/runner.hpp"
#include "util/flags.hpp"
#include "util/input.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace cosched {
namespace {

// --- input ---------------------------------------------------------------------

// An ifstream opens a directory and reads it as empty; open_input refuses
// it like a missing file, and opens everything else as before.
TEST(Input, OpenInputRejectsDirectoriesOnly) {
  namespace fs = std::filesystem;
  std::ifstream dir;
  EXPECT_FALSE(open_input(dir, fs::temp_directory_path().string()));
  EXPECT_FALSE(dir.is_open());
  std::ifstream missing;
  EXPECT_FALSE(open_input(missing, "no/such/input"));
  std::ifstream device;
  ASSERT_TRUE(open_input(device, "/dev/null"));
  EXPECT_EQ(device.get(), std::char_traits<char>::eof());
  const fs::path path = fs::temp_directory_path() /
                        ("cosched_input_test_" + std::to_string(::getpid()));
  std::ofstream(path) << "Nodes=4\n";
  std::ifstream file;
  ASSERT_TRUE(open_input(file, path.string()));
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "Nodes=4");
  fs::remove(path);
}

// --- types ---------------------------------------------------------------------

TEST(Types, SecondsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.5), kSecond / 2);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
  EXPECT_EQ(from_seconds(to_seconds(123456789)), 123456789);
}

TEST(Types, FormatDuration) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(90 * kSecond), "00:01:30");
  EXPECT_EQ(format_duration(3 * kHour + 25 * kMinute + 7 * kSecond),
            "03:25:07");
  EXPECT_EQ(format_duration(2 * kDay + kHour), "2-01:00:00");
  EXPECT_EQ(format_duration(-kMinute), "-00:01:00");
}

TEST(Types, ParseDuration) {
  EXPECT_EQ(parse_duration("90"), 90 * kSecond);
  EXPECT_EQ(parse_duration("01:30"), 90 * kSecond);
  EXPECT_EQ(parse_duration("02:00:00"), 2 * kHour);
  EXPECT_EQ(parse_duration("1-00:00:00"), kDay);
  EXPECT_EQ(parse_duration(""), -1);
  EXPECT_EQ(parse_duration("abc"), -1);
  EXPECT_EQ(parse_duration("1:2:3:4"), -1);
  EXPECT_EQ(parse_duration("-5"), -1);
}

TEST(Types, ParseFormatRoundTrip) {
  for (SimDuration d : {SimDuration{0}, kSecond, 90 * kSecond, kHour,
                        kDay + 3 * kHour + 4 * kMinute + 5 * kSecond}) {
    EXPECT_EQ(parse_duration(format_duration(d)), d) << format_duration(d);
  }
}

// --- rng -----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, StreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a.next_u32() == b.next_u32()) ? 1 : 0;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, KnownReference) {
  // Reference values from the canonical pcg32 demo seeding
  // (pcg32_srandom_r(42u, 54u)).
  Pcg32 rng(42, 54);
  EXPECT_EQ(rng.next_u32(), 0xa15c02b7u);
  EXPECT_EQ(rng.next_u32(), 0x7b47f409u);
  EXPECT_EQ(rng.next_u32(), 0xba1d3330u);
}

TEST(Rng, NextBelowInRange) {
  Pcg32 rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Pcg32 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Pcg32 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Pcg32 rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.exponential(0.5));
  EXPECT_NEAR(mean_of(xs), 2.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Pcg32 rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(quantile(std::move(xs), 0.5), std::exp(1.0), 0.1);
}

TEST(Rng, NormalMoments) {
  Pcg32 rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(3.0, 2.0));
  const double mean = mean_of(xs);
  std::vector<double> squared_deviations;
  for (double x : xs) squared_deviations.push_back((x - mean) * (x - mean));
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(std::sqrt(mean_of(squared_deviations)), 2.0, 0.1);
  EXPECT_NEAR(quantile(xs, 0.5), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Pcg32 rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Pcg32 rng(10);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.weighted_index({1.0, 2.0, 1.0})];
  }
  EXPECT_NEAR(counts[1] / 30000.0, 0.5, 0.02);
  EXPECT_NEAR(counts[0] / 30000.0, 0.25, 0.02);
}

TEST(Rng, WeightedIndexSkipsZeroWeights) {
  Pcg32 rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.weighted_index({0.0, 1.0, 0.0}), 1u);
  }
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, QuantileInterpolation) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);  // unsorted input
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({42}, 0.99), 42.0);
}

TEST(Stats, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3, 6}), 3.0);
  EXPECT_DOUBLE_EQ(mean_of({-4}), -4.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Stats, BootstrapCiCoversMean) {
  Pcg32 rng(22);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(10, 2));
  Pcg32 boot(23);
  const auto ci = bootstrap_mean_ci(xs, 0.95, boot);
  EXPECT_LT(ci.lo, ci.mean);
  EXPECT_GT(ci.hi, ci.mean);
  EXPECT_NEAR(ci.mean, 10.0, 0.5);
  EXPECT_LT(ci.hi - ci.lo, 1.5);
}

TEST(Stats, BootstrapDegenerate) {
  Pcg32 rng(24);
  const auto ci = bootstrap_mean_ci({5.0}, 0.95, rng);
  EXPECT_EQ(ci.lo, 5.0);
  EXPECT_EQ(ci.hi, 5.0);
}

// --- table ---------------------------------------------------------------------

TEST(Table, AlignsColumnsAndFormats) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 1);
  t.row().add("b").add(std::int64_t{42});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.row().add("x,y").add("he said \"hi\"");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.row_count(), 0u);
  t.row().add("1");
  t.row().add("2");
  EXPECT_EQ(t.row_count(), 2u);
}

// --- flags ---------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=3",  "--beta", "7",
                        "positional", "--delta=x y", "--gamma"};
  Flags flags(7, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_int("beta", 0), 7);  // "--name value" form
  EXPECT_TRUE(flags.get_bool("gamma", false));  // bare flag = true
  EXPECT_EQ(flags.get_string("delta", ""), "x y");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("missing", 9), 9);
  EXPECT_EQ(flags.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.get_bool("missing", false));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=no"};
  Flags flags(5, argv);
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(Flags, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--n=abc", "--x=1.2.3", "--b=maybe"};
  Flags flags(4, argv);
  EXPECT_THROW(flags.get_int("n", 0), Error);
  EXPECT_THROW(flags.get_double("x", 0), Error);
  EXPECT_THROW(flags.get_bool("b", false), Error);
}

/// The message of the cosched::Error `f` throws; "" when it throws none.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, RejectsNonFiniteNumbers) {
  const char* argv[] = {"prog", "--a=nan", "--b=inf", "--c=-inf",
                        "--d=1e999"};
  Flags flags(5, argv);
  EXPECT_EQ(error_of([&] { flags.get_double("a", 0); }),
            "flag --a expects a finite number, got 'nan'");
  EXPECT_EQ(error_of([&] { flags.get_double("b", 0); }),
            "flag --b expects a finite number, got 'inf'");
  EXPECT_EQ(error_of([&] { flags.get_double("c", 0); }),
            "flag --c expects a finite number, got '-inf'");
  EXPECT_EQ(error_of([&] { flags.get_double("d", 0); }),
            "flag --d expects a finite number, got '1e999'");
}

TEST(Flags, PositiveDoubleRejectsZeroAndNegatives) {
  const char* argv[] = {"prog", "--zero=0", "--neg", "-1", "--tiny=1e-12",
                        "--nan=nan"};
  Flags flags(6, argv);
  EXPECT_EQ(error_of([&] { flags.get_positive_double("zero", 1); }),
            "flag --zero must be positive, got 0");
  EXPECT_EQ(error_of([&] { flags.get_positive_double("neg", 1); }),
            "flag --neg must be positive, got -1");
  EXPECT_EQ(error_of([&] { flags.get_positive_double("nan", 1); }),
            "flag --nan expects a finite number, got 'nan'");
  EXPECT_EQ(flags.get_positive_double("tiny", 1), 1e-12);
  // Absent: the default, whatever it is (0 means "not given" to callers).
  EXPECT_EQ(flags.get_positive_double("missing", 0), 0);
}

TEST(Flags, SecondsMustBeNonNegativeAndRepresentable) {
  const char* argv[] = {"prog", "--neg=-5", "--inf=inf", "--huge=1e300",
                        "--max=2305843009213", "--half=0.5"};
  Flags flags(6, argv);
  EXPECT_EQ(error_of([&] { flags.get_seconds("neg", 0); }),
            "flag --neg must be between 0 and " +
                std::to_string(kMaxInputSeconds) + " s, got -5");
  EXPECT_EQ(error_of([&] { flags.get_seconds("inf", 0); }),
            "flag --inf expects a finite number, got 'inf'");
  EXPECT_EQ(error_of([&] { flags.get_seconds("huge", 0); }),
            "flag --huge must be between 0 and " +
                std::to_string(kMaxInputSeconds) + " s, got 1e+300");
  EXPECT_NO_THROW(flags.get_seconds("max", 0));  // the limit itself
  EXPECT_EQ(flags.get_seconds("half", 0), 500 * kMillisecond);
  EXPECT_EQ(flags.get_seconds("missing", 0), 0);
}

// A count flag that does not fit its range fails with one line, instead
// of wrapping on the narrowing to int (--jobs 4294967297 ran one job) or
// reaching a precondition abort (--nodes 0).
TEST(Flags, BoundedIntRejectsValuesOutsideItsRange) {
  const char* argv[] = {"prog",       "--jobs=4294967297", "--nodes=0",
                        "--cells=-4", "--threads=257",     "--context=0",
                        "--ok=7"};
  Flags flags(7, argv);
  EXPECT_EQ(error_of([&] { flags.get_int_in("jobs", 300, 1); }),
            "flag --jobs must be between 1 and 2147483647, got 4294967297");
  EXPECT_EQ(error_of([&] { flags.get_int_in("nodes", 32, 1, kMaxNodes); }),
            "flag --nodes must be between 1 and 1048576, got 0");
  EXPECT_EQ(error_of([&] { flags.get_int_in("cells", 4, 1); }),
            "flag --cells must be between 1 and 2147483647, got -4");
  // The runner starts one OS thread per requested worker.
  EXPECT_EQ(error_of([&] {
              flags.get_int_in("threads", 0, 0, runner::kMaxThreads);
            }),
            "flag --threads must be between 0 and 256, got 257");
  EXPECT_EQ(flags.get_int_in("context", 3, 0), 0);  // the bound itself
  EXPECT_EQ(flags.get_int_in("ok", 0, 1, 7), 7);
  EXPECT_EQ(flags.get_int_in("missing", 12, 1), 12);
}

TEST(Flags, TracksUnused) {
  const char* argv[] = {"prog", "--used=1", "--stray=2"};
  Flags flags(3, argv);
  (void)flags.get_int("used", 0);
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "stray");
}

}  // namespace
}  // namespace cosched
