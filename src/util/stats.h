// Descriptive statistics used throughout the evaluation harness: Pearson correlation for the
// Fig. 8 reproduction, percentiles/CDFs for the online-serving experiment, and a streaming
// mean/variance accumulator (Welford) for per-layer entropy summaries.
#ifndef FMOE_SRC_UTIL_STATS_H_
#define FMOE_SRC_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fmoe {

double Mean(std::span<const double> values);

// Pearson correlation coefficient in [-1, 1]. Returns 0 when either side is constant.
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

// Linear-interpolated percentile; `pct` in [0, 100]. Returns 0 for empty input.
double Percentile(std::span<const double> values, double pct);

// Streaming mean/variance (Welford's online algorithm).
class RunningStat {
 public:
  void Add(double x);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const;  // Population variance.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Empirical CDF: sorted samples plus evaluation helpers. Used for Fig. 10.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  // Value at the given quantile in [0, 1].
  double Quantile(double q) const;
  size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_STATS_H_
