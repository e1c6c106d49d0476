// Dispatched build of the hot kernels (widest SIMD backend the build enables) plus the cold
// double-precision helpers. The kernel bodies live in math_kernels.h; the bitwise scalar
// reference of the same bodies is built separately in math_scalar.cc.
#include "src/util/math.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

#include "src/util/math_kernels.h"
#include "src/util/simd.h"

namespace fmoe {

const char* SimdLevelName() { return simd::kLevelName; }

double Dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

double Norm(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

double CosineSimilarity(std::span<const double> a, std::span<const double> b) {
  const double na = Norm(a);
  const double nb = Norm(b);
  if (na == 0.0 || nb == 0.0) {
    return 0.0;
  }
  return Dot(a, b) / (na * nb);
}

double DotF(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return KDotRowAccurate(a.data(), b.data(), a.size());
}

void DotBatched(std::span<const float> query, const float* rows, size_t row_stride,
                size_t count, double* out, bool accumulate) {
  KDotBatched(query, rows, row_stride, count, out, accumulate);
}

void CosineAgainstRows(std::span<const float> query, double inv_query_norm, const float* rows,
                       size_t row_stride, size_t count, const double* inv_row_norms,
                       double* out) {
  KCosineAgainstRows(query, inv_query_norm, rows, row_stride, count, inv_row_norms, out);
}

void AccumulateColumns(std::span<const float> coeffs, const float* cols, size_t col_stride,
                       size_t count, double* out) {
  KAccumulateColumns(coeffs, cols, col_stride, count, out);
}

void AccumulateColumnsFused(std::span<const float> coeffs, const float* cols, size_t col_stride,
                            size_t count, size_t first_col, size_t end_col, double* out,
                            float* open, double* full_out) {
  KAccumulateColumnsFused(coeffs, cols, col_stride, count, first_col, end_col, out, open,
                          full_out);
}

uint16_t Fp16FromFloat(float value) { return KFloatToHalf(value); }

float Fp16ToFloat(uint16_t bits) { return KHalfToFloat(bits); }

void AccumulateColumnsF16(std::span<const float> coeffs, const uint16_t* cols,
                          size_t col_stride, size_t count, double* out) {
  KAccumulateColumnsF16(coeffs, cols, col_stride, count, out);
}

void FoldQ8Coeffs(std::span<const float> coeffs, const float* col_scales,
                  const float* col_offsets, Q8Coeffs* out) {
  // All folding math is plain scalar double arithmetic — one shared definition, so the
  // dispatched and scalar kernels consume identical folded coefficients.
  const size_t n = coeffs.size();
  out->q.resize(n);
  double offset_term = 0.0;
  double max_abs = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double folded = static_cast<double>(coeffs[k]) * static_cast<double>(col_scales[k]);
    max_abs = std::max(max_abs, std::abs(folded));
    offset_term += static_cast<double>(coeffs[k]) * static_cast<double>(col_offsets[k]);
  }
  out->offset_term = offset_term;
  if (max_abs == 0.0) {
    std::fill(out->q.begin(), out->q.end(), 0);
    out->scale = 0.0;
    return;
  }
  const double qscale = max_abs / 32767.0;
  const double inv_qscale = 32767.0 / max_abs;
  out->scale = qscale;
  for (size_t k = 0; k < n; ++k) {
    const double folded = static_cast<double>(coeffs[k]) * static_cast<double>(col_scales[k]);
    const double scaled = folded * inv_qscale;
    out->q[k] = static_cast<int32_t>(
        std::lround(std::clamp(scaled, -32767.0, 32767.0)));
  }
}

void AccumulateColumnsQ8(const Q8Coeffs& coeffs, const uint8_t* cols, size_t col_stride,
                         size_t count, double* out) {
  KAccumulateColumnsQ8(coeffs, cols, col_stride, count, out);
}

double Log(double x) { return KAtPoint<KLog>(x); }

double Exp(double x) { return KAtPoint<KExp>(x); }

double CosTwoPi(double u) { return KAtPoint<KCosTwoPi>(u); }

void GaussianRowInto(const uint64_t* keys, size_t n, double* out) {
  KGaussianRowInto(keys, n, out);
}

void SoftmaxInPlace(std::vector<double>& logits, double temperature) {
  KSoftmaxInPlace(logits, temperature);
}

std::vector<double> Softmax(std::span<const double> logits, double temperature) {
  std::vector<double> out(logits.begin(), logits.end());
  SoftmaxInPlace(out, temperature);
  return out;
}

double Entropy(std::span<const double> probs) {
  double h = 0.0;
  for (double p : probs) {
    if (p > 0.0) {
      h -= p * std::log(p);
    }
  }
  return h;
}

double NormalizedEntropy(std::span<const double> probs) {
  if (probs.size() <= 1) {
    return 0.0;
  }
  return Entropy(probs) / std::log(static_cast<double>(probs.size()));
}

std::vector<size_t> TopKIndices(std::span<const double> values, size_t k) {
  std::vector<size_t> order;
  TopKIndicesInto(values, k, &order);
  return order;
}

void TopKIndicesInto(std::span<const double> values, size_t k, std::vector<size_t>* out) {
  KTopKIndicesInto(values, k, out);
}

size_t ArgMaxScore(const double* column, const uint64_t* labels, size_t n, double now,
                   bool age_mode) {
  return KArgMaxScore(column, labels, n, now, age_mode);
}

std::vector<size_t> MassCoverIndices(std::span<const double> probs, double threshold,
                                     size_t min_count) {
  // One ordering pass keeps the best m entries under (value desc, index asc) in a sorted
  // buffer: an entry only ranks before a kept one on a strictly greater value, because it
  // comes later. That order is strict and total, so the buffer is exactly the sorted prefix of
  // length m, and the cover is its shortest prefix meeting both rules, with the mass summed in
  // pick order. m starts at min_count; a cover that needs more than m entries (rare: the
  // threshold outweighs the top min_count) redoes the pass at 2m.
  const size_t n = probs.size();
  min_count = std::min(min_count, n);
  std::vector<size_t> top;
  for (size_t m = std::min(std::max(min_count, size_t{1}), n);; m = std::min(2 * m, n)) {
    top.clear();
    top.reserve(m);
    for (size_t j = 0; j < n; ++j) {
      if (top.size() == m) {
        if (!(probs[j] > probs[top.back()])) {
          continue;
        }
        top.pop_back();
      }
      size_t at = top.size();
      top.push_back(j);
      for (; at > 0 && probs[j] > probs[top[at - 1]]; --at) {
        top[at] = top[at - 1];
      }
      top[at] = j;
    }
    size_t count = 0;
    double mass = 0.0;
    while (count < m && (count < min_count || mass < threshold)) {
      mass += probs[top[count]];
      ++count;
    }
    if (count < m || m == n || mass >= threshold) {
      top.resize(count);
      return top;
    }
  }
}

void NormalizeInPlace(std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  if (sum <= 0.0) {
    if (!values.empty()) {
      const double uniform = 1.0 / static_cast<double>(values.size());
      std::fill(values.begin(), values.end(), uniform);
    }
    return;
  }
  for (double& v : values) {
    v /= sum;
  }
}

void AddInPlace(std::vector<double>& a, std::span<const double> b) {
  assert(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] += b[i];
  }
}

double Clip(double x, double lo, double hi) { return std::max(lo, std::min(x, hi)); }

}  // namespace fmoe
