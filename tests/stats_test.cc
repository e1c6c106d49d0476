#include "src/util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(MeanTest, Basic) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(values), 2.5);
}

TEST(MeanTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(PearsonTest, PerfectPositiveCorrelation) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegativeCorrelation) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{3.0, 2.0, 1.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesGivesZero) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(PearsonTest, UncorrelatedNearZero) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{1.0, -1.0, 1.0, -1.0};
  EXPECT_NEAR(PearsonCorrelation(x, y), -0.45, 0.5);
}

TEST(PercentileTest, MedianOfOddCount) {
  const std::vector<double> values{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 2.0);
}

TEST(PercentileTest, Extremes) {
  const std::vector<double> values{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 9.0);
}

TEST(PercentileTest, InterpolatesBetweenSamples) {
  const std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 5.0);
}

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile(std::vector<double>{}, 50.0), 0.0);
}

TEST(RunningStatTest, MatchesBatchStatistics) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStat stat;
  for (double v : values) {
    stat.Add(v);
  }
  EXPECT_EQ(stat.count(), values.size());
  EXPECT_NEAR(stat.mean(), Mean(values), 1e-12);
  EXPECT_NEAR(stat.variance(), 4.0, 1e-12);  // Population variance.
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStatTest, SingleValueHasZeroVariance) {
  RunningStat stat;
  stat.Add(3.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
}

TEST(EmpiricalCdfTest, QuantileInterpolates) {
  EmpiricalCdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 10.0);
}

TEST(EmpiricalCdfTest, EmptyIsSafe) {
  EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 0.0);
}

}  // namespace
}  // namespace fmoe
