#include "sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"

namespace facsp::sim {
namespace {

TEST(SummaryStats, EmptyIsZero) {
  SummaryStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci_half_width(), 0.0);
}

TEST(SummaryStats, MatchesNaiveComputation) {
  const std::vector<double> xs = {3.0, 1.5, 4.25, -2.0, 7.0, 0.0};
  SummaryStats s;
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double ssq = 0.0;
  for (double x : xs) ssq += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), ssq / (xs.size() - 1), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(SummaryStats, MergeEqualsCombinedStream) {
  SummaryStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryStats, MergeWithEmpty) {
  SummaryStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

TEST(SummaryStats, RejectsNonFinite) {
  SummaryStats s;
  EXPECT_THROW(s.add(std::nan("")), ContractViolation);
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               ContractViolation);
}

TEST(SummaryStats, CiShrinksWithSamples) {
  SummaryStats small, large;
  for (int i = 0; i < 5; ++i) small.add(i % 2 ? 1.0 : -1.0);
  for (int i = 0; i < 500; ++i) large.add(i % 2 ? 1.0 : -1.0);
  EXPECT_GT(small.ci_half_width(0.95), large.ci_half_width(0.95));
}

TEST(StudentT, KnownQuantiles) {
  EXPECT_NEAR(student_t_quantile(0.95, 1), 12.706, 1e-2);
  EXPECT_NEAR(student_t_quantile(0.95, 10), 2.228, 1e-2);
  EXPECT_NEAR(student_t_quantile(0.99, 5), 4.032, 1e-2);
  EXPECT_NEAR(student_t_quantile(0.90, 20), 1.725, 1e-2);
  // Large dof approaches the normal quantile.
  EXPECT_NEAR(student_t_quantile(0.95, 10000), 1.96, 1e-2);
}

TEST(StudentT, InterpolatedDofIsBracketed) {
  const double t17 = student_t_quantile(0.95, 17);
  EXPECT_LT(t17, student_t_quantile(0.95, 15));
  EXPECT_GT(t17, student_t_quantile(0.95, 20));
}

TEST(StudentT, InvalidArgumentsThrow) {
  EXPECT_THROW(student_t_quantile(0.0, 5), ContractViolation);
  EXPECT_THROW(student_t_quantile(1.0, 5), ContractViolation);
  EXPECT_THROW(student_t_quantile(0.95, 0), ContractViolation);
}

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeighted tw;
  tw.start(0.0, 10.0);
  tw.update(10.0, 20.0);   // 10 for [0,10)
  tw.update(30.0, 0.0);    // 20 for [10,30)
  // 0 for [30,40): avg = (100 + 400 + 0) / 40 = 12.5
  EXPECT_DOUBLE_EQ(tw.average(40.0), 12.5);
  EXPECT_DOUBLE_EQ(tw.current(), 0.0);
}

TEST(TimeWeighted, AverageAtStartIsCurrentValue) {
  TimeWeighted tw;
  tw.start(5.0, 3.0);
  EXPECT_DOUBLE_EQ(tw.average(5.0), 3.0);
}

TEST(TimeWeighted, TimeMustNotGoBackwards) {
  TimeWeighted tw;
  tw.start(0.0, 1.0);
  tw.update(10.0, 2.0);
  EXPECT_THROW(tw.update(5.0, 3.0), ContractViolation);
  EXPECT_THROW(tw.average(5.0), ContractViolation);
}

TEST(TimeWeighted, UpdateBeforeStartThrows) {
  TimeWeighted tw;
  EXPECT_THROW(tw.update(1.0, 1.0), ContractViolation);
  EXPECT_THROW(tw.average(1.0), ContractViolation);
}

TEST(RatioCounter, HitsAndMisses) {
  RatioCounter rc;
  EXPECT_DOUBLE_EQ(rc.ratio(0.5), 0.5);  // empty -> default
  rc.hit();
  rc.hit();
  rc.miss();
  EXPECT_DOUBLE_EQ(rc.ratio(), 2.0 / 3.0);
  EXPECT_NEAR(rc.percent(), 66.666, 1e-2);
  EXPECT_EQ(rc.numerator, 2u);
  EXPECT_EQ(rc.denominator, 3u);
}

}  // namespace
}  // namespace facsp::sim
