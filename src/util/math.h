// Small dense-vector math kernels shared by the gate simulator and the expert-map machinery.
//
// Two tiers live here. The double-precision span routines serve the gate simulator and other
// cold paths (J <= 96 experts, hidden sizes <= 256 in the simulator). The float batch kernels
// (DotBatched / CosineAgainstRows / AccumulateColumns and their fp16/int8 variants) are the
// hot inner loops of the Expert Map Store search engine: they stream one query against many
// rows (or columns) of a matrix. They accumulate in single precision over short fixed-size
// blocks and flush each block total into a double accumulator — the bounded chain length
// (<= 16 float adds between flushes) keeps the worst-case rounding error well under the 1e-6
// the store's equivalence tests allow. Block boundaries depend only on the element index,
// so a row's result never depends on which other rows share the call.
//
// The hot kernels are vectorized through src/util/simd.h (compile-time dispatch: AVX2, or
// the scalar form). The abstraction fixes the logical lane layout and reduction trees,
// so the vectorized kernels are bitwise identical to the scalar reference on the fp32 path —
// `fmoe::scalar::` exposes that reference (same kernel source compiled with vectorization
// forced off) for differential tests and honest benchmark baselines. Everything stays
// dependency-free.
#ifndef FMOE_SRC_UTIL_MATH_H_
#define FMOE_SRC_UTIL_MATH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fmoe {

// Name of the SIMD backend the hot kernels were compiled against: "avx2" or "scalar".
// Determined at build time (see FMOE_SIMD in CMakeLists.txt).
const char* SimdLevelName();

double Dot(std::span<const double> a, std::span<const double> b);
double Norm(std::span<const double> a);

// Cosine similarity in [-1, 1]. Returns 0 when either vector has zero norm.
double CosineSimilarity(std::span<const double> a, std::span<const double> b);

// Single-precision dot product accumulated entirely in double (4-way unrolled) — the accurate
// tier, used for norms and other once-per-insert quantities where error must not depend on
// vector length.
double DotF(std::span<const float> a, std::span<const float> b);

// out[r] = dot(query, rows + r * row_stride) over query.size() elements, for r in [0, count).
// `rows` is a row-major matrix with `row_stride` floats between consecutive rows
// (row_stride >= query.size()). When `accumulate` is true the dots are added into `out`
// instead of overwriting it. Blocked float accumulation (see the header comment).
void DotBatched(std::span<const float> query, const float* rows, size_t row_stride,
                size_t count, double* out, bool accumulate = false);

// out[r] = cosine(query, row r) from precomputed *inverse* norms:
// dot · inv_query_norm · inv_row_norms[r]. Callers store 0 as the inverse of a zero norm, so
// zero-norm vectors score exactly 0 (the CosineSimilarity convention) with no branch or
// divide in the loop.
void CosineAgainstRows(std::span<const float> query, double inv_query_norm, const float* rows,
                       size_t row_stride, size_t count, const double* inv_row_norms,
                       double* out);

// out[i] += Σ_k coeffs[k] · cols[k · col_stride + i] for i in [0, count): accumulate a linear
// combination of matrix *columns* (column-major, `col_stride` floats between consecutive
// columns). This is the Expert Map Store's trajectory kernel — with maps stored layer-major,
// one observed gate distribution extends every record's running dot via J contiguous,
// perfectly sequential column passes. Blocked float accumulation; per-element results are
// independent of how callers tile or partition [0, count).
void AccumulateColumns(std::span<const float> coeffs, const float* cols, size_t col_stride,
                       size_t count, double* out);

// AccumulateColumns that also keeps a second grouping of the same products, for a caller that
// streams columns [0, end_col) of one matrix in several consecutive calls (the store's
// per-layer trajectory session) but also needs the one-call result over all of them (RDY
// dedup). `coeffs` are the coefficients of columns [first_col, first_col + coeffs.size()).
// `out` receives exactly AccumulateColumns(coeffs, cols, col_stride, count, out). `open` holds
// count floats, zero before the first call, that carry each element's unflushed partial across
// calls; once calls have covered every column of [0, end_col) in order, `full_out` has
// received exactly what one AccumulateColumns call over all end_col coefficients adds.
void AccumulateColumnsFused(std::span<const float> coeffs, const float* cols, size_t col_stride,
                            size_t count, size_t first_col, size_t end_col, double* out,
                            float* open, double* full_out);

// ---- Reduced-precision column kernels (quantized Expert Map Store, DESIGN.md §5g) ----

// IEEE binary16 conversions (round-to-nearest-even; bit-exact, no hardware dependency).
// Fp16ToFloat(Fp16FromFloat(x)) is the canonical half-precision rounding of x.
uint16_t Fp16FromFloat(float value);
float Fp16ToFloat(uint16_t bits);

// As AccumulateColumns, but columns hold fp16 bit patterns. Each value is widened to float
// (exact) before the same blocked accumulation, so the result is bitwise identical to running
// AccumulateColumns on the half-rounded values.
void AccumulateColumnsF16(std::span<const float> coeffs, const uint16_t* cols,
                          size_t col_stride, size_t count, double* out);

// Folded coefficients for the int8 column kernel. Columns are stored affinely quantized:
// value = col_scale · q + col_offset with q in [0, 255]. FoldQ8Coeffs folds the per-column
// scales into the coefficients and re-quantizes those to a shared int16-range scale, so the
// scan itself is pure int32 multiply-accumulate (dequantize-free):
//   Σ_k coeffs[k]·(scale_k·q_k[i] + offset_k)  ≈  scale · Σ_k cq[k]·q_k[i]  +  offset_term.
// Integer accumulation is exact, so quantized scans are deterministic across partitionings
// and SIMD backends by construction. The struct owns its buffer so steady-state callers
// (TrajectorySearchSession) can fold without allocating.
struct Q8Coeffs {
  std::vector<int32_t> q;   // |q[k]| <= 32767; aligned index-for-index with the fold input.
  double scale = 0.0;       // Shared dequantization scale for the integer total.
  double offset_term = 0.0; // Σ_k coeffs[k] · col_offset_k, added once per output element.
};

// col_scales / col_offsets are arrays of coeffs.size() per-column quantization parameters,
// aligned with coeffs. Relative folding error is <= 1/32767 of the largest |coeff·scale|.
void FoldQ8Coeffs(std::span<const float> coeffs, const float* col_scales,
                  const float* col_offsets, Q8Coeffs* out);

// out[i] += folded combination of uint8 columns (col_stride bytes between columns):
// out[i] += coeffs.scale · Σ_k coeffs.q[k]·cols[k·col_stride + i] + coeffs.offset_term.
void AccumulateColumnsQ8(const Q8Coeffs& coeffs, const uint8_t* cols, size_t col_stride,
                         size_t count, double* out);

// In-place numerically-stable softmax with temperature (> 0). Lower temperature sharpens.
// Non-finite logits degrade gracefully instead of yielding NaN probabilities: the result is
// a one-hot at the largest logit (+inf wins; ties break to the lowest index; NaN never wins),
// or uniform when no logit compares greater than -inf.
void SoftmaxInPlace(std::vector<double>& logits, double temperature = 1.0);
std::vector<double> Softmax(std::span<const double> logits, double temperature = 1.0);

// Deterministic transcendentals (DESIGN.md §5g): pure functions of this source, bitwise equal
// on every SIMD backend and independent of the platform libm. Log takes positive normal finite
// x and is within 1 ulp; Exp is within 1 ulp, returns +0 for x ≤ −745.1332191019412 (the double
// nearest ln 2^-1075; see kExpUnderflow in math_kernels.h) and +inf above ln(DBL_MAX);
// CosTwoPi(u) = cos(2πu) for u in [0, 1), within 2e-15 absolute.
double Log(double x);
double Exp(double x);
double CosTwoPi(double u);

// out[i] = a standard Gaussian drawn from keys[i] alone, for i in [0, n): two SplitMix64
// uniforms through Box-Muller on the kernels above, four keys per vector step. The gate
// simulator's per-expert noise.
void GaussianRowInto(const uint64_t* keys, size_t n, double* out);

// Shannon entropy (natural log) of a probability distribution. Ignores zero entries.
double Entropy(std::span<const double> probs);

// Normalized entropy in [0, 1]: Entropy(p) / ln(n) for n > 1, else 0.
double NormalizedEntropy(std::span<const double> probs);

// Indices of the k largest values, ordered by descending value (ties broken by lower index).
std::vector<size_t> TopKIndices(std::span<const double> values, size_t k);

// Allocation-free TopKIndices: `out` is overwritten with the result and only grows capacity.
void TopKIndicesInto(std::span<const double> values, size_t k, std::vector<size_t>* out);

// Index of the highest score in column[0, n): the score is column[i], or now - column[i] when
// `age_mode`. Equal scores go to the smaller labels[i]; NaN entries are never picked. Returns
// n when there is no candidate (n == 0 or every entry NaN). The expert cache's victim pick
// (DESIGN.md §5d).
size_t ArgMaxScore(const double* column, const uint64_t* labels, size_t n, double now,
                   bool age_mode);

// Smallest prefix of the descending-sorted distribution whose mass reaches `threshold`,
// subject to returning at least `min_count` entries (capped at values.size()). Equal values
// order by lower index. This is exactly fMoE's Eq. (6)-(8) expert selection operator.
std::vector<size_t> MassCoverIndices(std::span<const double> probs, double threshold,
                                     size_t min_count);

// Normalizes a non-negative vector to sum to one; uniform if the sum is zero.
void NormalizeInPlace(std::vector<double>& values);

// Elementwise a += b.
void AddInPlace(std::vector<double>& a, std::span<const double> b);

// Clamp helper mirroring the paper's Clip(x, lo, hi).
double Clip(double x, double lo, double hi);

// Scalar reference build of the hot kernels: the same kernel source compiled with the SIMD
// backend forced to "scalar" and compiler vectorization disabled (src/util/math_scalar.cc).
// These are the bitwise ground truth the vectorized build must match (simd_equivalence_test);
// they also serve as the honest baseline for bench_simd.
namespace scalar {
double DotF(std::span<const float> a, std::span<const float> b);
void DotBatched(std::span<const float> query, const float* rows, size_t row_stride,
                size_t count, double* out, bool accumulate = false);
void CosineAgainstRows(std::span<const float> query, double inv_query_norm, const float* rows,
                       size_t row_stride, size_t count, const double* inv_row_norms,
                       double* out);
void AccumulateColumns(std::span<const float> coeffs, const float* cols, size_t col_stride,
                       size_t count, double* out);
void AccumulateColumnsFused(std::span<const float> coeffs, const float* cols, size_t col_stride,
                            size_t count, size_t first_col, size_t end_col, double* out,
                            float* open, double* full_out);
void AccumulateColumnsF16(std::span<const float> coeffs, const uint16_t* cols,
                          size_t col_stride, size_t count, double* out);
void AccumulateColumnsQ8(const Q8Coeffs& coeffs, const uint8_t* cols, size_t col_stride,
                         size_t count, double* out);
double Log(double x);
double Exp(double x);
double CosTwoPi(double u);
void GaussianRowInto(const uint64_t* keys, size_t n, double* out);
void SoftmaxInPlace(std::vector<double>& logits, double temperature = 1.0);
void TopKIndicesInto(std::span<const double> values, size_t k, std::vector<size_t>* out);
size_t ArgMaxScore(const double* column, const uint64_t* labels, size_t n, double now,
                   bool age_mode);
}  // namespace scalar

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_MATH_H_
