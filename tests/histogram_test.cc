#include "src/util/histogram.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(LatencyHistogramTest, CountsEverySample) {
  LatencyHistogram hist;
  hist.Add();
  hist.Add();
  hist.Add();
  EXPECT_EQ(hist.count(), 3u);
}

TEST(LatencyHistogramTest, EmptyIsSafe) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
}

}  // namespace
}  // namespace fmoe
