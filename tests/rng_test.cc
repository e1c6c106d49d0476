#include "src/util/rng.h"

#include <vector>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextUniformInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianHasRoughlyCorrectMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialHasRoughlyCorrectMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.NextLogNormal(4.0, 0.8), 0.0);
  }
}

TEST(RngTest, NextBoolProbabilityRoughlyHolds) {
  Rng rng(29);
  int count = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) {
      ++count;
    }
  }
  EXPECT_NEAR(static_cast<double>(count) / n, 0.3, 0.02);
}

TEST(SplitMix64Test, AdvancesState) {
  uint64_t state = 0;
  const uint64_t first = SplitMix64(state);
  const uint64_t second = SplitMix64(state);
  EXPECT_NE(first, second);
  EXPECT_NE(state, 0u);
}

}  // namespace
}  // namespace fmoe
