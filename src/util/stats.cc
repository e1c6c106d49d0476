#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace fmoe {

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  if (x.size() < 2) {
    return 0.0;
  }
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

double Percentile(std::span<const double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = (pct / 100.0) * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  if (lo == hi) {
    return sorted[lo];
  }
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::Quantile(double q) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  q = std::max(0.0, std::min(q, 1.0));
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = static_cast<size_t>(std::ceil(rank));
  if (lo == hi) {
    return sorted_[lo];
  }
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace fmoe
