// Hot-kernel implementations, written once against the simd.h lane-group abstraction.
//
// This header is included by exactly two translation units:
//   * src/util/math.cc        — compiled with the widest SIMD the build enables; provides the
//                               public dispatched kernels (fmoe::AccumulateColumns, ...).
//   * src/util/math_scalar.cc — defines FMOE_SIMD_FORCE_SCALAR first and is compiled with
//                               vectorization disabled; provides the bitwise-reference
//                               fmoe::scalar:: kernels.
// Every function here is `static`, so the two TUs hold private copies compiled for different
// backends without ODR conflicts. Because simd.h fixes the logical lane groups and reduction
// trees, the two copies are bitwise identical on the fp32 path (simd_equivalence_test pins
// this), and the integer (int8) path is exact arithmetic and therefore trivially identical.
//
// Determinism contract (DESIGN.md §5g): block boundaries (64-element dot blocks, 2048-element
// output tiles, 16-coefficient flush blocks, 256-coefficient int32 blocks) depend only on the
// element index, never on how callers partition the output range or on the backend's hardware
// width. No fused multiply-add anywhere — Add(Mul(..)) is two rounding steps on every backend,
// and kernel TUs are compiled with -ffp-contract=off so the compiler cannot re-fuse them.
#ifndef FMOE_SRC_UTIL_MATH_KERNELS_H_
#define FMOE_SRC_UTIL_MATH_KERNELS_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "src/util/math.h"
#include "src/util/simd.h"

namespace fmoe {
namespace {

// Accurate inner loop: 4 independent double accumulators over float inputs (lane k of the
// F64x4 is exactly accumulator k of the scalar reference; tail elements fold into lane 0).
static inline double KDotRowAccurate(const float* a, const float* b, size_t n) {
  simd::F64x4 acc = simd::ZeroF64x4();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = simd::Add(acc, simd::Mul(simd::WidenF32x4(a + i), simd::WidenF32x4(b + i)));
  }
  double lanes[4];
  simd::Store(lanes, acc);
  for (; i < n; ++i) {
    lanes[0] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Fast inner loop: 8 float accumulator lanes over 64-element blocks, each block flushed into
// the double total through the fixed pairwise tree. The longest float addition chain is 8
// adds + a 3-level reduce, so rounding error stays O(eps) regardless of n.
static inline double KDotRowFast(const float* __restrict a, const float* __restrict b,
                                 size_t n) {
  double total = 0.0;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    simd::F32x8 acc = simd::ZeroF32x8();
    for (size_t j = 0; j < 64; j += 8) {
      acc = simd::Add(acc, simd::Mul(simd::LoadF32x8(a + i + j), simd::LoadF32x8(b + i + j)));
    }
    total += simd::ReduceAddPairwise(acc);
  }
  if (i < n) {
    simd::F32x8 acc = simd::ZeroF32x8();
    for (; i + 8 <= n; i += 8) {
      acc = simd::Add(acc, simd::Mul(simd::LoadF32x8(a + i), simd::LoadF32x8(b + i)));
    }
    total += simd::ReduceAddPairwise(acc);
    for (; i < n; ++i) {
      total += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
  }
  return total;
}

static inline void KDotBatched(std::span<const float> query, const float* rows,
                               size_t row_stride, size_t count, double* out, bool accumulate) {
  assert(row_stride >= query.size());
  const size_t dim = query.size();
  for (size_t r = 0; r < count; ++r) {
    const double dot = KDotRowFast(query.data(), rows + r * row_stride, dim);
    out[r] = accumulate ? out[r] + dot : dot;
  }
}

static inline void KCosineAgainstRows(std::span<const float> query, double inv_query_norm,
                                      const float* rows, size_t row_stride, size_t count,
                                      const double* inv_row_norms, double* out) {
  KDotBatched(query, rows, row_stride, count, out, /*accumulate=*/false);
  for (size_t r = 0; r < count; ++r) {
    out[r] *= inv_query_norm * inv_row_norms[r];
  }
}

// Shared tile geometry of the column kernels (see the AccumulateColumns comment in math.h).
inline constexpr size_t kColTile = 2048;     // Output elements per L1-resident tile.
inline constexpr size_t kColFlushCoeffs = 16;  // Float accumulation chain bound.

static inline void KAccumulateColumns(std::span<const float> coeffs, const float* cols,
                                      size_t col_stride, size_t count, double* out) {
  float tile[kColTile];
  for (size_t t0 = 0; t0 < count; t0 += kColTile) {
    const size_t tn = std::min(kColTile, count - t0);
    for (size_t k0 = 0; k0 < coeffs.size(); k0 += kColFlushCoeffs) {
      const size_t k_end = std::min(coeffs.size(), k0 + kColFlushCoeffs);
      std::fill_n(tile, tn, 0.0f);
      for (size_t k = k0; k < k_end; ++k) {
        const float* __restrict col = cols + k * col_stride + t0;
        const float coeff = coeffs[k];
        const simd::F32x8 vc = simd::BroadcastF32x8(coeff);
        size_t i = 0;
        for (; i + 8 <= tn; i += 8) {
          simd::Store(tile + i, simd::Add(simd::LoadF32x8(tile + i),
                                          simd::Mul(vc, simd::LoadF32x8(col + i))));
        }
        for (; i < tn; ++i) {
          tile[i] += coeff * col[i];
        }
      }
      double* __restrict dst = out + t0;
      size_t i = 0;
      for (; i + 4 <= tn; i += 4) {
        simd::Store(dst + i, simd::Add(simd::LoadF64x4(dst + i), simd::WidenF32x4(tile + i)));
      }
      for (; i < tn; ++i) {
        dst[i] += static_cast<double>(tile[i]);
      }
    }
  }
}

// Adds the float lanes of `acc` (kFusedLanes lane groups) into dst[0, 8·kFusedLanes) as
// doubles: dst[i] += (double)lane_i, the same flush KAccumulateColumns applies to its tile.
inline constexpr size_t kFusedLanes = 4;
static inline void KFlushLanes(const simd::F32x8 (&acc)[kFusedLanes], double* dst) {
  float lanes[8 * kFusedLanes];
  for (size_t v = 0; v < kFusedLanes; ++v) {
    simd::Store(lanes + 8 * v, acc[v]);
  }
  for (size_t j = 0; j < 8 * kFusedLanes; j += 4) {
    simd::Store(dst + j, simd::Add(simd::LoadF64x4(dst + j), simd::WidenF32x4(lanes + j)));
  }
}

// KAccumulateColumns plus a second accumulation of the same products on the absolute column
// grid. Each column value is loaded and multiplied once; the float product feeds the call's
// own group (flushed into `out` every kColFlushCoeffs coefficients of *this call*, exactly as
// KAccumulateColumns) and the caller's persistent per-element float partial `open`, which is
// flushed into `full_out` whenever absolute column first_col + k closes a 16-column group of
// [0, end_col). Chaining calls over consecutive column ranges therefore rebuilds, in
// `full_out`, the single-call KAccumulateColumns result over all of [0, end_col) bit for bit.
// Per element the float and double additions happen in exactly the order KAccumulateColumns
// performs them; only the loop nest differs: blocks of 8·kFusedLanes elements keep both
// accumulators in registers across a 16-coefficient group, so the second grouping costs
// additions, not memory traffic.
static inline void KAccumulateColumnsFused(std::span<const float> coeffs, const float* cols,
                                           size_t col_stride, size_t count, size_t first_col,
                                           size_t end_col, double* out, float* open,
                                           double* full_out) {
  constexpr size_t kRows = 8 * kFusedLanes;
  const size_t body = count - count % kRows;
  const auto closes_full_group = [&](size_t k) {
    const size_t done = first_col + k + 1;  // Absolute columns consumed so far.
    return done % kColFlushCoeffs == 0 || done == end_col;
  };
  for (size_t k0 = 0; k0 < coeffs.size(); k0 += kColFlushCoeffs) {
    const size_t k_end = std::min(coeffs.size(), k0 + kColFlushCoeffs);
    for (size_t r = 0; r < body; r += kRows) {
      simd::F32x8 group[kFusedLanes];
      simd::F32x8 part[kFusedLanes];
      for (size_t v = 0; v < kFusedLanes; ++v) {
        group[v] = simd::ZeroF32x8();
        part[v] = simd::LoadF32x8(open + r + 8 * v);
      }
      for (size_t k = k0; k < k_end; ++k) {
        const float* __restrict col = cols + k * col_stride + r;
        const simd::F32x8 vc = simd::BroadcastF32x8(coeffs[k]);
        for (size_t v = 0; v < kFusedLanes; ++v) {
          const simd::F32x8 prod = simd::Mul(vc, simd::LoadF32x8(col + 8 * v));
          group[v] = simd::Add(group[v], prod);
          part[v] = simd::Add(part[v], prod);
        }
        if (closes_full_group(k)) {
          KFlushLanes(part, full_out + r);
          for (size_t v = 0; v < kFusedLanes; ++v) {
            part[v] = simd::ZeroF32x8();
          }
        }
      }
      KFlushLanes(group, out + r);
      for (size_t v = 0; v < kFusedLanes; ++v) {
        simd::Store(open + r + 8 * v, part[v]);
      }
    }
    for (size_t i = body; i < count; ++i) {
      float group = 0.0f;
      float part = open[i];
      for (size_t k = k0; k < k_end; ++k) {
        const float prod = coeffs[k] * cols[k * col_stride + i];
        group += prod;
        part += prod;
        if (closes_full_group(k)) {
          full_out[i] += static_cast<double>(part);
          part = 0.0f;
        }
      }
      out[i] += static_cast<double>(group);
      open[i] = part;
    }
  }
}

// ---- fp16 helpers (bit-exact, dependency-free; shared verbatim by both TUs) ----

static inline float KHalfToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1Fu;
  uint32_t mant = h & 0x3FFu;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // Signed zero.
    } else {
      // Subnormal half: renormalize into the float format (exact).
      exp = 113;  // 127 - 15 + 1
      while ((mant & 0x400u) == 0) {
        mant <<= 1;
        --exp;
      }
      mant &= 0x3FFu;
      bits = sign | (exp << 23) | (mant << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7F800000u | (mant << 13);  // Inf / NaN (payload preserved).
  } else {
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

static inline uint16_t KFloatToHalf(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  const uint16_t sign = static_cast<uint16_t>((bits >> 16) & 0x8000u);
  const uint32_t exp = (bits >> 23) & 0xFFu;
  uint32_t mant = bits & 0x7FFFFFu;
  if (exp == 0xFF) {  // Inf / NaN.
    return static_cast<uint16_t>(
        sign | 0x7C00u | (mant != 0 ? (0x200u | (mant >> 13)) : 0u));
  }
  const int e = static_cast<int>(exp) - 127 + 15;
  if (e >= 31) {
    return static_cast<uint16_t>(sign | 0x7C00u);  // Overflow -> inf.
  }
  if (e <= 0) {
    if (e < -10) {
      return sign;  // Underflows to signed zero even after rounding.
    }
    // Subnormal half: shift the 24-bit significand into place, round to nearest-even.
    mant |= 0x800000u;
    const int shift = 14 - e;  // In [14, 24].
    const uint32_t q = mant >> shift;
    const uint32_t rem = mant & ((1u << shift) - 1u);
    const uint32_t half = 1u << (shift - 1);
    uint32_t r = q;
    if (rem > half || (rem == half && (q & 1u))) {
      ++r;  // A carry out of the subnormal range lands on exp=1 — still the right encoding.
    }
    return static_cast<uint16_t>(sign | r);
  }
  const uint32_t q = mant >> 13;
  const uint32_t rem = mant & 0x1FFFu;
  uint32_t r = (static_cast<uint32_t>(e) << 10) | q;
  if (rem > 0x1000u || (rem == 0x1000u && (q & 1u))) {
    ++r;  // May carry into the exponent; a carry past the max exponent is infinity.
  }
  if (r >= 0x7C00u) {
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  return static_cast<uint16_t>(sign | r);
}

// fp16 columns: identical tile geometry to KAccumulateColumns, with each 8-lane load widened
// half->float first (exact conversion, so the float arithmetic — and therefore the result —
// matches running the fp32 kernel on the rounded values bit for bit).
static inline void KAccumulateColumnsF16(std::span<const float> coeffs, const uint16_t* cols,
                                         size_t col_stride, size_t count, double* out) {
  float tile[kColTile];
#if !defined(FMOE_SIMD_HAS_F16C)
  float widened[8];
#endif
  for (size_t t0 = 0; t0 < count; t0 += kColTile) {
    const size_t tn = std::min(kColTile, count - t0);
    for (size_t k0 = 0; k0 < coeffs.size(); k0 += kColFlushCoeffs) {
      const size_t k_end = std::min(coeffs.size(), k0 + kColFlushCoeffs);
      std::fill_n(tile, tn, 0.0f);
      for (size_t k = k0; k < k_end; ++k) {
        const uint16_t* __restrict col = cols + k * col_stride + t0;
        const float coeff = coeffs[k];
        const simd::F32x8 vc = simd::BroadcastF32x8(coeff);
        size_t i = 0;
        for (; i + 8 <= tn; i += 8) {
#if defined(FMOE_SIMD_HAS_F16C)
          const simd::F32x8 vals = simd::WidenF16x8(col + i);
#else
          for (int lane = 0; lane < 8; ++lane) {
            widened[lane] = KHalfToFloat(col[i + static_cast<size_t>(lane)]);
          }
          const simd::F32x8 vals = simd::LoadF32x8(widened);
#endif
          simd::Store(tile + i,
                      simd::Add(simd::LoadF32x8(tile + i), simd::Mul(vc, vals)));
        }
        for (; i < tn; ++i) {
          tile[i] += coeff * KHalfToFloat(col[i]);
        }
      }
      double* __restrict dst = out + t0;
      for (size_t i = 0; i < tn; ++i) {
        dst[i] += static_cast<double>(tile[i]);
      }
    }
  }
}

// int8 columns: pure int32 accumulation of the folded coefficients (see Q8Coeffs in math.h).
// Integer arithmetic is exact, so the result is independent of lane width, evaluation order,
// and output partitioning by construction; the only rounding happens in the final
// `scale * total + offset` per output element, which is a fixed expression.
static inline void KAccumulateColumnsQ8(const Q8Coeffs& coeffs, const uint8_t* cols,
                                        size_t col_stride, size_t count, double* out) {
  // 256 coefficients x (32767 * 255) stays under 2^31, and each int32 block total converts to
  // double exactly, so `itotal` is an exact integer sum for any number of blocks.
  constexpr size_t kBlockCoeffs = 256;
  const size_t num_coeffs = coeffs.q.size();
  int32_t tile[kColTile];
  double itotal[kColTile];
  for (size_t t0 = 0; t0 < count; t0 += kColTile) {
    const size_t tn = std::min(kColTile, count - t0);
    std::fill_n(itotal, tn, 0.0);
    for (size_t k0 = 0; k0 < num_coeffs; k0 += kBlockCoeffs) {
      const size_t k_end = std::min(num_coeffs, k0 + kBlockCoeffs);
      std::fill_n(tile, tn, 0);
      for (size_t k = k0; k < k_end; ++k) {
        const int32_t c = coeffs.q[k];
        if (c == 0) {
          continue;  // Exact arithmetic: skipping zero terms cannot change the result.
        }
        const uint8_t* __restrict col = cols + k * col_stride + t0;
        const simd::I32x8 vc = simd::BroadcastI32x8(c);
        size_t i = 0;
        for (; i + 8 <= tn; i += 8) {
          simd::Store(tile + i, simd::Add(simd::LoadI32x8(tile + i),
                                          simd::Mul(vc, simd::WidenU8x8(col + i))));
        }
        for (; i < tn; ++i) {
          tile[i] += c * static_cast<int32_t>(col[i]);
        }
      }
      for (size_t i = 0; i < tn; ++i) {
        itotal[i] += static_cast<double>(tile[i]);
      }
    }
    double* __restrict dst = out + t0;
    for (size_t i = 0; i < tn; ++i) {
      dst[i] += coeffs.scale * itotal[i] + coeffs.offset_term;
    }
  }
}

static inline void KSoftmaxInPlace(std::vector<double>& logits, double temperature) {
  assert(temperature > 0.0);
  if (logits.empty()) {
    return;
  }
  const size_t n = logits.size();
  const double* data = logits.data();

  // One vectorized pass: running max plus an all-finite flag. Max over finite doubles is
  // exact, so the lane order cannot change the value; the flag is checked before the max is
  // trusted, because NaN lanes make hardware max results order-dependent.
  bool all_finite = true;
  double max_logit = -std::numeric_limits<double>::infinity();
  {
    simd::F64x4 vmax = simd::BroadcastF64x4(-std::numeric_limits<double>::infinity());
    int finite_bits = 0xF;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const simd::F64x4 v = simd::LoadF64x4(data + i);
      finite_bits &= simd::FiniteMask(v);
      vmax = simd::Max(vmax, v);
    }
    all_finite = finite_bits == 0xF;
    max_logit = simd::ReduceMax(vmax);
    for (; i < n; ++i) {
      const double v = data[i];
      if (!(v - v == 0.0)) {
        all_finite = false;
      }
      if (v > max_logit) {
        max_logit = v;
      }
    }
  }

  if (!all_finite) {
    // Guard: a single +inf logit used to yield NaN probabilities (inf/inf) that poisoned
    // downstream top-k. Degrade to the limit distribution instead: a one-hot at the largest
    // logit (+inf dominates; ties break to the lowest index; NaN never wins because every
    // comparison with it is false). If nothing compares greater than -inf (all lanes are
    // -inf or NaN) there is no usable ordering — fall back to uniform, the NormalizeInPlace
    // zero-mass convention.
    size_t arg = n;
    double best = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (logits[i] > best) {
        best = logits[i];
        arg = i;
      }
    }
    if (arg == n) {
      std::fill(logits.begin(), logits.end(), 1.0 / static_cast<double>(n));
    } else {
      std::fill(logits.begin(), logits.end(), 0.0);
      logits[arg] = 1.0;
    }
    return;
  }

  // exp stays scalar libm: a vector polynomial would change results bitwise, and the golden
  // reports pin softmax outputs byte-for-byte. The sum order is the element order, as before.
  double sum = 0.0;
  for (double& v : logits) {
    v = std::exp((v - max_logit) / temperature);
    sum += v;
  }
  // Normalization is an independent IEEE divide per element — vector and scalar agree bitwise.
  {
    const simd::F64x4 vsum = simd::BroadcastF64x4(sum);
    double* p = logits.data();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      simd::Store(p + i, simd::Div(simd::LoadF64x4(p + i), vsum));
    }
    for (; i < n; ++i) {
      p[i] /= sum;
    }
  }
}

static inline void KTopKIndicesInto(std::span<const double> values, size_t k,
                                    std::vector<size_t>* out) {
  const size_t n = values.size();
  k = std::min(k, n);
  // Small-k fast path: keep the current top-k in a sorted scratch pair and scan with a SIMD
  // greater-than filter against the running k-th value. Top-k under (value desc, index asc)
  // is a selection under a strict total order, so any correct algorithm returns the exact
  // sequence the partial_sort reference does.
  constexpr size_t kSmallK = 32;
  if (k > 0 && k <= kSmallK && n > k) {
    double best_val[kSmallK];
    size_t best_idx[kSmallK];
    size_t m = 0;
    const auto insert = [&](double v, size_t idx, size_t limit) {
      size_t j = limit;
      while (j > 0 && best_val[j - 1] < v) {  // Strict <: equal values keep the earlier index.
        best_val[j] = best_val[j - 1];
        best_idx[j] = best_idx[j - 1];
        --j;
      }
      best_val[j] = v;
      best_idx[j] = idx;
    };
    size_t i = 0;
    for (; i < k; ++i) {  // Fill phase: unconditional (handles -inf and duplicate values).
      insert(values[i], i, m);
      ++m;
    }
    const simd::F64x4 vthresh_init = simd::BroadcastF64x4(best_val[k - 1]);
    simd::F64x4 vthresh = vthresh_init;
    for (; i + 4 <= n; i += 4) {
      const int mask = simd::GtMask(simd::LoadF64x4(&values[i]), vthresh);
      if (mask == 0) {
        continue;
      }
      for (int lane = 0; lane < 4; ++lane) {
        if ((mask & (1 << lane)) == 0) {
          continue;
        }
        const double v = values[i + static_cast<size_t>(lane)];
        if (v > best_val[k - 1]) {  // Re-check: earlier lanes may have raised the threshold.
          insert(v, i + static_cast<size_t>(lane), k - 1);
        }
      }
      vthresh = simd::BroadcastF64x4(best_val[k - 1]);
    }
    for (; i < n; ++i) {
      if (values[i] > best_val[k - 1]) {
        insert(values[i], i, k - 1);
      }
    }
    out->resize(k);
    std::copy_n(best_idx, k, out->begin());
    return;
  }
  // General path (k == 0, k == n, or large k): the partial_sort reference.
  out->resize(n);
  std::iota(out->begin(), out->end(), size_t{0});
  std::partial_sort(out->begin(), out->begin() + static_cast<ptrdiff_t>(k), out->end(),
                    [&](size_t a, size_t b) {
                      if (values[a] != values[b]) {
                        return values[a] > values[b];
                      }
                      return a < b;
                    });
  out->resize(k);
}

}  // namespace
}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_MATH_KERNELS_H_
