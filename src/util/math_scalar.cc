// Bitwise scalar reference build of the hot kernels (fmoe::scalar::). FMOE_SIMD_FORCE_SCALAR
// pins simd.h to its scalar backend before anything else is included, and this TU is compiled
// with compiler vectorization disabled (see src/util/CMakeLists.txt), so these definitions
// are the ground truth the dispatched build in math.cc must match bit for bit on fp32.
#define FMOE_SIMD_FORCE_SCALAR 1

#include "src/util/math_kernels.h"

namespace fmoe {
namespace scalar {

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

void AccumulateColumnsF16(std::span<const float> coeffs, const uint16_t* cols,
                          size_t col_stride, size_t count, double* out) {
  KAccumulateColumnsF16(coeffs, cols, col_stride, count, out);
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

void TopKIndicesInto(std::span<const double> values, size_t k, std::vector<size_t>* out) {
  KTopKIndicesInto(values, k, out);
}

size_t ArgMaxScore(const double* column, const uint64_t* labels, size_t n, double now,
                   bool age_mode) {
  return KArgMaxScore(column, labels, n, now, age_mode);
}

}  // namespace scalar
}  // namespace fmoe
