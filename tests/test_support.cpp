// Unit tests for the support library: RNG, statistics, fitting,
// interpolation, tables, integer parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/fit.h"
#include "support/interp.h"
#include "support/parse.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace swapp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

// The first draws of every member helper for one seed, recorded once.  Two
// generators agreeing with each other (above) would not notice a slip in the
// generator's own arithmetic; these values would, and the GA's output bits
// depend on every one of them.
TEST(Rng, StreamMatchesRecordedValues) {
  constexpr std::uint64_t kSeed = 0x5eed0001;
  {
    Rng rng(kSeed);
    for (const std::uint64_t want :
         {0xcd45c7f1de81ef56ULL, 0xe47dba8995cd84f1ULL, 0xa06950112a721f47ULL,
          0xa6b96924d28e19e4ULL}) {
      EXPECT_EQ(rng(), want);
    }
  }
  {
    Rng rng(kSeed);
    for (const double want : {0x1.9a8b8fe3bd03dp-1, 0x1.c8fb75132b9bp-1,
                              0x1.40d2a02254e43p-1, 0x1.4d72d249a51c3p-1}) {
      EXPECT_EQ(rng.uniform(), want);
    }
  }
  {
    Rng rng(kSeed);
    for (const double want : {0x1.4d45c7f1de81ep+0, 0x1.647dba8995cd8p+0,
                              0x1.206950112a722p+0, 0x1.26b96924d28e2p+0}) {
      EXPECT_EQ(rng.uniform(0.5, 1.5), want);
    }
  }
  {
    Rng rng(kSeed);
    for (const std::uint64_t want : {76, 85, 60, 62, 21, 93, 49, 8}) {
      EXPECT_EQ(rng.below(96), want);
    }
  }
  {
    Rng rng(kSeed);
    for (const std::int64_t want : {4, 4, 3, 3, 2, 4, 3, 2}) {
      EXPECT_EQ(rng.range(2, 4), want);
    }
  }
  {
    Rng rng(kSeed);
    std::string draws;
    for (int i = 0; i < 16; ++i) draws += rng.chance(0.6) ? '1' : '0';
    EXPECT_EQ(draws, "0000101100111101");
  }
  {
    Rng rng(kSeed);
    for (const double want : {0x1.5819ba649875fp-5, 0x1.bf7e9091974b6p-5,
                              0x1.bbb184b39e3f7p-2, 0x1.090e7e1c8a4p-1}) {
      EXPECT_EQ(rng.normal(0.0, 0.35), want);
    }
  }
}

// chance(0.5) is exactly "the raw word's top bit is clear": uniform() is
// (x >> 11)·2⁻⁵³, an exact double, and it is below 0.5 iff x < 2⁶³.  The GA's
// crossover reads the top bit directly and relies on this being the same
// stream.
TEST(Rng, TopBitIsChanceHalf) {
  Rng via_chance(99);
  Rng via_raw(99);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(via_chance.chance(0.5), (via_raw() >> 63) == 0) << "draw " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Parse, PositiveDecimalAcceptsOnlyDigits) {
  EXPECT_EQ(parse_positive_decimal("1"), 1);
  EXPECT_EQ(parse_positive_decimal("0042"), 42);
  EXPECT_EQ(parse_positive_decimal("9223372036854775807"),
            9223372036854775807LL);
  for (const char* bad : {"", "-3", "+3", " 3", "3 ", "3x", "2.5", "0x10",
                          "9223372036854775808"}) {
    EXPECT_EQ(parse_positive_decimal(bad), -1) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_positive_decimal("0"), 0);  // callers reject zero
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
}

TEST(Stats, PercentErrors) {
  EXPECT_DOUBLE_EQ(percent_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percent_error(90.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(signed_percent_error(90.0, 100.0), -10.0);
  EXPECT_THROW(percent_error(1.0, 0.0), InvalidArgument);
}

TEST(Stats, FractionAbove) {
  const std::vector<double> proj = {1.0, 3.0, 2.0, 5.0};
  const std::vector<double> act = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(fraction_above(proj, act), 0.5);
}

TEST(Stats, SummarizeErrors) {
  const std::vector<double> errs = {-10.0, 10.0, 20.0};
  const ErrorSummary s = summarize_errors(errs);
  EXPECT_NEAR(s.mean_abs_error, 40.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.max_abs_error, 20.0);
  EXPECT_EQ(s.count, 3u);
}

TEST(Fit, LinearRecoversLine) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (const double v : x) y.push_back(3.0 * v - 2.0);
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 3.0, 1e-12);
  EXPECT_NEAR(f.intercept, -2.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(Fit, PowerRecoversPowerLaw) {
  const std::vector<double> x = {1, 2, 4, 8, 16};
  std::vector<double> y;
  for (const double v : x) y.push_back(5.0 * std::pow(v, -0.7));
  const PowerFit f = fit_power(x, y);
  EXPECT_NEAR(f.a, 5.0, 1e-9);
  EXPECT_NEAR(f.b, -0.7, 1e-9);
}

TEST(Fit, ScalingRecoversAmdahlLikeCurve) {
  // T(C) = 100/C + 2.
  const std::vector<double> cores = {1, 2, 4, 8, 16, 32};
  std::vector<double> time;
  for (const double c : cores) time.push_back(100.0 / c + 2.0);
  const ScalingFit f = fit_scaling(cores, time);
  EXPECT_NEAR(f.b, 1.0, 0.02);
  EXPECT_NEAR(f.a, 100.0, 2.0);
  EXPECT_NEAR(f.c, 2.0, 0.5);
  EXPECT_NEAR(f(64.0), 100.0 / 64.0 + 2.0, 0.5);
}

TEST(Fit, ScalingFactorBetweenCounts) {
  const std::vector<double> cores = {16, 32, 64};
  std::vector<double> time;
  for (const double c : cores) time.push_back(640.0 / c);
  const ScalingFit f = fit_scaling(cores, time);
  EXPECT_NEAR(f.scale_factor(16, 128), 16.0 / 128.0, 0.02);
}

TEST(Fit, ZeroCrossingExtrapolation) {
  // m(C) = 10·C^(-1): crosses 0.15 ≈ 5% of peak(16-sample max 0.625)… use
  // threshold directly: m(C) = threshold at C = 10/threshold.
  const std::vector<double> cores = {16, 32, 64};
  const std::vector<double> metric = {10.0 / 16, 10.0 / 32, 10.0 / 64};
  const double c = extrapolate_zero_crossing(cores, metric, 0.05);
  EXPECT_NEAR(c, 200.0, 1.0);
}

TEST(Fit, NoCrossingForFlatMetric) {
  const std::vector<double> cores = {16, 32, 64};
  const std::vector<double> metric = {1.0, 1.0, 1.0};
  EXPECT_TRUE(std::isinf(extrapolate_zero_crossing(cores, metric, 0.01)));
}

TEST(Interp, LogLogExactAtKnots) {
  const std::vector<double> x = {1, 10, 100};
  const std::vector<double> y = {2, 20, 200};
  const LogLogInterpolator f(x, y);
  EXPECT_NEAR(f(1), 2, 1e-12);
  EXPECT_NEAR(f(10), 20, 1e-12);
  EXPECT_NEAR(f(100), 200, 1e-12);
  // Linear in log-log: y = 2x everywhere.
  EXPECT_NEAR(f(31.6227766), 2 * 31.6227766, 1e-6);
  // Extrapolation continues the end segment.
  EXPECT_NEAR(f(1000), 2000, 1e-6);
}

TEST(Interp, CoreSizeTableBilinear) {
  CoreSizeTable t;
  for (const int c : {16, 64}) {
    for (const double b : {1024.0, 65536.0}) {
      t.insert(c, b, 1e-6 * c * b / 1024.0);
    }
  }
  // Exact at corners.
  EXPECT_NEAR(t.lookup(16, 1024), 16e-6, 1e-12);
  EXPECT_NEAR(t.lookup(64, 65536), 64e-6 * 64, 1e-9);
  // Monotone in both dimensions between corners.
  EXPECT_GT(t.lookup(32, 1024), t.lookup(16, 1024));
  EXPECT_GT(t.lookup(16, 4096), t.lookup(16, 1024));
}

TEST(Interp, EmptyTableThrows) {
  CoreSizeTable t;
  EXPECT_THROW(t.lookup(16, 1024), NotFound);
}

TEST(Table, AlignsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("| value"), std::string::npos);
}

TEST(Table, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, CsvEscapes) {
  TextTable t({"a", "b"});
  t.add_row({"x,y", "plain"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

}  // namespace
}  // namespace swapp
