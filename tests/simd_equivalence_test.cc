// Differential test for the SIMD hot-kernel pass (DESIGN.md §5g): the dispatched kernels —
// compiled against whatever backend CMake selected (see SimdLevelName()) — must be *bitwise*
// identical to the scalar reference build (fmoe::scalar::, src/util/math_scalar.cc) on fp32
// inputs, and the quantized kernels must stay within their documented epsilon of the exact
// double-precision result. Sizes are fuzzed across every lane/block/tile boundary the kernels
// tile by: 8-lane groups, 64-element dot blocks, 16-coefficient fp32 flush blocks,
// 256-coefficient int8 blocks, and 2048-element output tiles.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/math.h"

namespace fmoe {
namespace {

// Element counts straddling each kernel boundary (boundary - 1, boundary, boundary + 1).
const size_t kSizes[] = {0,  1,  2,   3,   5,   7,   8,    9,    15,   16,   17,   31,  32,
                         33, 63, 64,  65,  127, 128, 129,  255,  256,  257,  511,  512, 513,
                         771, 2047, 2048, 2049, 2500, 4095, 4096, 4097};

// Coefficient counts straddling the 16-wide fp32 flush and 256-wide int8 blocks.
const size_t kCoeffCounts[] = {1, 2, 7, 8, 15, 16, 17, 31, 255, 256, 257};

std::vector<float> RandomFloats(std::mt19937_64& rng, size_t n, float lo = -1.0f,
                                float hi = 1.0f) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (float& x : v) {
    x = dist(rng);
  }
  return v;
}

std::vector<double> RandomDoubles(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> v(n);
  for (double& x : v) {
    x = dist(rng);
  }
  return v;
}

// Bitwise comparison: catches even sign-of-zero and NaN-payload drift that == would forgive.
void ExpectBitwiseEqual(const std::vector<double>& expected, const std::vector<double>& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(expected[i]), std::bit_cast<uint64_t>(actual[i]))
        << what << " diverges at [" << i << "]: scalar=" << expected[i]
        << " dispatched=" << actual[i];
  }
}

TEST(SimdEquivalenceTest, BackendNameIsKnown) {
  const std::string level = SimdLevelName();
  EXPECT_TRUE(level == "avx2" || level == "sse2" || level == "neon" || level == "scalar")
      << level;
}

TEST(SimdEquivalenceTest, DotFBitwiseMatchesScalar) {
  std::mt19937_64 rng(0xD07F);
  for (const size_t n : kSizes) {
    const std::vector<float> a = RandomFloats(rng, n, -3.0f, 3.0f);
    const std::vector<float> b = RandomFloats(rng, n, -3.0f, 3.0f);
    ASSERT_EQ(std::bit_cast<uint64_t>(scalar::DotF(a, b)), std::bit_cast<uint64_t>(DotF(a, b)))
        << "n=" << n;
  }
}

TEST(SimdEquivalenceTest, DotBatchedBitwiseMatchesScalar) {
  std::mt19937_64 rng(0xBA7C);
  for (const size_t dim : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    for (const size_t count : {0u, 1u, 3u, 17u}) {
      const size_t stride = dim + 3;
      const std::vector<float> query = RandomFloats(rng, dim);
      const std::vector<float> rows = RandomFloats(rng, count * stride);
      for (const bool accumulate : {false, true}) {
        std::vector<double> expected = RandomDoubles(rng, count);
        std::vector<double> actual = expected;
        scalar::DotBatched(query, rows.data(), stride, count, expected.data(), accumulate);
        DotBatched(query, rows.data(), stride, count, actual.data(), accumulate);
        ExpectBitwiseEqual(expected, actual,
                           "DotBatched dim=" + std::to_string(dim) +
                               " count=" + std::to_string(count) +
                               " accumulate=" + std::to_string(accumulate));
      }
    }
  }
}

TEST(SimdEquivalenceTest, CosineAgainstRowsBitwiseMatchesScalar) {
  std::mt19937_64 rng(0xC05);
  for (const size_t dim : {1u, 8u, 63u, 64u, 65u, 130u}) {
    const size_t count = 9;  // Includes a zero-norm row below.
    const size_t stride = dim + 1;
    const std::vector<float> query = RandomFloats(rng, dim);
    std::vector<float> rows = RandomFloats(rng, count * stride);
    std::vector<double> inv_norms(count);
    for (size_t r = 0; r < count; ++r) {
      double norm_sq = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        norm_sq += static_cast<double>(rows[r * stride + i]) * rows[r * stride + i];
      }
      inv_norms[r] = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
    }
    // Zero-norm row: callers store 0 as the inverse norm; the score must be exactly 0.
    for (size_t i = 0; i < dim; ++i) {
      rows[4 * stride + i] = 0.0f;
    }
    inv_norms[4] = 0.0;
    const double inv_query = 1.0 / (1.0 + std::sqrt(static_cast<double>(dim)));
    std::vector<double> expected(count), actual(count);
    scalar::CosineAgainstRows(query, inv_query, rows.data(), stride, count, inv_norms.data(),
                              expected.data());
    CosineAgainstRows(query, inv_query, rows.data(), stride, count, inv_norms.data(),
                      actual.data());
    ExpectBitwiseEqual(expected, actual, "CosineAgainstRows dim=" + std::to_string(dim));
    EXPECT_EQ(0.0, actual[4]);
  }
}

TEST(SimdEquivalenceTest, AccumulateColumnsBitwiseMatchesScalar) {
  std::mt19937_64 rng(0xACC);
  for (const size_t count : kSizes) {
    for (const size_t num_coeffs : kCoeffCounts) {
      const size_t stride = count + 5;
      const std::vector<float> coeffs = RandomFloats(rng, num_coeffs);
      const std::vector<float> cols = RandomFloats(rng, num_coeffs * stride);
      std::vector<double> expected = RandomDoubles(rng, count);
      std::vector<double> actual = expected;
      scalar::AccumulateColumns(coeffs, cols.data(), stride, count, expected.data());
      AccumulateColumns(coeffs, cols.data(), stride, count, actual.data());
      ExpectBitwiseEqual(expected, actual,
                         "AccumulateColumns count=" + std::to_string(count) +
                             " coeffs=" + std::to_string(num_coeffs));
    }
  }
}

// The fused kernel run layer by layer (J columns per call, so first_col is rarely a multiple
// of 16 and the last group of [0, L·J) may be a tail) must reproduce two unfused scans bit for
// bit: `out` equals per-layer AccumulateColumns, and `full_out` equals one AccumulateColumns
// call over all L·J columns. The dispatched build must match the scalar reference on both.
TEST(SimdEquivalenceTest, AccumulateColumnsFusedMatchesUnfusedScansAndScalar) {
  std::mt19937_64 rng(0xF05E);
  const size_t kLayers = 3;
  for (const size_t J : {8u, 60u, 64u, 128u}) {
    const size_t end_col = kLayers * J;
    for (const size_t count : {1u, 7u, 15u, 16u, 17u, 999u, 1000u, 2049u}) {
      const size_t stride = count + 3;
      const std::vector<float> coeffs = RandomFloats(rng, end_col);
      const std::vector<float> cols = RandomFloats(rng, end_col * stride);
      const std::vector<double> start = RandomDoubles(rng, count);
      const std::vector<double> full_start = RandomDoubles(rng, count);

      std::vector<double> per_layer = start;
      std::vector<double> one_shot = full_start;
      AccumulateColumns(coeffs, cols.data(), stride, count, one_shot.data());
      std::vector<double> out = start, full = full_start;
      std::vector<double> ref_out = start, ref_full = full_start;
      std::vector<float> open(count, 0.0f), ref_open(count, 0.0f);
      for (size_t l = 0; l < kLayers; ++l) {
        const std::span<const float> block(coeffs.data() + l * J, J);
        const float* layer_cols = cols.data() + l * J * stride;
        AccumulateColumns(block, layer_cols, stride, count, per_layer.data());
        AccumulateColumnsFused(block, layer_cols, stride, count, l * J, end_col, out.data(),
                               open.data(), full.data());
        scalar::AccumulateColumnsFused(block, layer_cols, stride, count, l * J, end_col,
                                       ref_out.data(), ref_open.data(), ref_full.data());
      }
      const std::string what = " J=" + std::to_string(J) + " count=" + std::to_string(count);
      ExpectBitwiseEqual(per_layer, out, "fused out vs per-layer AccumulateColumns" + what);
      ExpectBitwiseEqual(one_shot, full, "fused full_out vs one-shot AccumulateColumns" + what);
      ExpectBitwiseEqual(ref_out, out, "fused out dispatched vs scalar" + what);
      ExpectBitwiseEqual(ref_full, full, "fused full_out dispatched vs scalar" + what);
    }
  }
}

TEST(SimdEquivalenceTest, AccumulateColumnsF16BitwiseMatchesScalar) {
  std::mt19937_64 rng(0xF16);
  for (const size_t count : kSizes) {
    for (const size_t num_coeffs : {1u, 15u, 16u, 17u}) {
      const size_t stride = count + 2;
      const std::vector<float> coeffs = RandomFloats(rng, num_coeffs);
      const std::vector<float> raw = RandomFloats(rng, num_coeffs * stride);
      std::vector<uint16_t> cols(raw.size());
      for (size_t i = 0; i < raw.size(); ++i) {
        cols[i] = Fp16FromFloat(raw[i]);
      }
      std::vector<double> expected = RandomDoubles(rng, count);
      std::vector<double> actual = expected;
      scalar::AccumulateColumnsF16(coeffs, cols.data(), stride, count, expected.data());
      AccumulateColumnsF16(coeffs, cols.data(), stride, count, actual.data());
      ExpectBitwiseEqual(expected, actual,
                         "AccumulateColumnsF16 count=" + std::to_string(count) +
                             " coeffs=" + std::to_string(num_coeffs));
    }
  }
}

TEST(SimdEquivalenceTest, AccumulateColumnsQ8BitwiseMatchesScalar) {
  std::mt19937_64 rng(0x0A8);
  for (const size_t count : kSizes) {
    for (const size_t num_coeffs : kCoeffCounts) {
      const size_t stride = count + 1;
      const std::vector<float> coeffs = RandomFloats(rng, num_coeffs);
      const std::vector<float> scales = RandomFloats(rng, num_coeffs, 0.001f, 0.01f);
      const std::vector<float> offsets = RandomFloats(rng, num_coeffs, -0.5f, 0.5f);
      std::vector<uint8_t> cols(num_coeffs * stride);
      std::uniform_int_distribution<int> byte(0, 255);
      for (uint8_t& b : cols) {
        b = static_cast<uint8_t>(byte(rng));
      }
      Q8Coeffs folded;
      FoldQ8Coeffs(coeffs, scales.data(), offsets.data(), &folded);
      std::vector<double> expected = RandomDoubles(rng, count);
      std::vector<double> actual = expected;
      scalar::AccumulateColumnsQ8(folded, cols.data(), stride, count, expected.data());
      AccumulateColumnsQ8(folded, cols.data(), stride, count, actual.data());
      ExpectBitwiseEqual(expected, actual,
                         "AccumulateColumnsQ8 count=" + std::to_string(count) +
                             " coeffs=" + std::to_string(num_coeffs));
    }
  }
}

// The int8 path's accuracy contract: folding the fp32 coefficients to a shared int16-range
// scale loses at most qscale/2 per coefficient, each multiplied by a byte in [0, 255], so
//   |Q8 result − exact result| ≤ K · qscale · 255/2,   qscale = max_k |coeffs_k·scale_k|/32767.
TEST(SimdEquivalenceTest, AccumulateColumnsQ8WithinDocumentedEpsilonOfExact) {
  std::mt19937_64 rng(0xE95);
  for (const size_t count : {1u, 64u, 771u, 2049u}) {
    const size_t num_coeffs = 32;
    const size_t stride = count;
    const std::vector<float> coeffs = RandomFloats(rng, num_coeffs);
    const std::vector<float> scales = RandomFloats(rng, num_coeffs, 0.001f, 0.01f);
    const std::vector<float> offsets = RandomFloats(rng, num_coeffs, -0.5f, 0.5f);
    std::vector<uint8_t> cols(num_coeffs * stride);
    std::uniform_int_distribution<int> byte(0, 255);
    for (uint8_t& b : cols) {
      b = static_cast<uint8_t>(byte(rng));
    }
    Q8Coeffs folded;
    FoldQ8Coeffs(coeffs, scales.data(), offsets.data(), &folded);
    std::vector<double> actual(count, 0.0);
    AccumulateColumnsQ8(folded, cols.data(), stride, count, actual.data());

    double max_folded = 0.0;
    for (size_t k = 0; k < num_coeffs; ++k) {
      max_folded = std::max(max_folded, std::abs(static_cast<double>(coeffs[k]) * scales[k]));
    }
    const double qscale = max_folded / 32767.0;
    const double bound = static_cast<double>(num_coeffs) * qscale * 255.0 / 2.0 + 1e-12;
    for (size_t i = 0; i < count; ++i) {
      double exact = 0.0;
      for (size_t k = 0; k < num_coeffs; ++k) {
        const double value = static_cast<double>(scales[k]) * cols[k * stride + i] +
                             static_cast<double>(offsets[k]);
        exact += static_cast<double>(coeffs[k]) * value;
      }
      ASSERT_NEAR(exact, actual[i], bound) << "count=" << count << " i=" << i;
    }
  }
}

// The fp16 path's accuracy contract: each stored value is the round-to-nearest-even half of
// the original, so per element the error is ≤ 2^-11 relative plus the fp32 accumulation the
// fp32 kernel already has. Against an exact double reference of the *unrounded* inputs, the
// result must stay within Σ_k |coeffs_k| · (|v_k| · 2^-10 + 2^-24).
TEST(SimdEquivalenceTest, AccumulateColumnsF16WithinDocumentedEpsilonOfExact) {
  std::mt19937_64 rng(0xEF16);
  const size_t count = 513;
  const size_t num_coeffs = 24;
  const std::vector<float> coeffs = RandomFloats(rng, num_coeffs);
  const std::vector<float> raw = RandomFloats(rng, num_coeffs * count);
  std::vector<uint16_t> cols(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    cols[i] = Fp16FromFloat(raw[i]);
  }
  std::vector<double> actual(count, 0.0);
  AccumulateColumnsF16(coeffs, cols.data(), count, count, actual.data());
  for (size_t i = 0; i < count; ++i) {
    double exact = 0.0;
    double bound = 1e-12;
    for (size_t k = 0; k < num_coeffs; ++k) {
      const double value = raw[k * count + i];
      exact += static_cast<double>(coeffs[k]) * value;
      bound += std::abs(static_cast<double>(coeffs[k])) *
               (std::abs(value) * 0x1p-10 + 0x1p-24);
    }
    ASSERT_NEAR(exact, actual[i], bound) << "i=" << i;
  }
}

TEST(SimdEquivalenceTest, Fp16ConversionRoundTripsAndRounds) {
  // Exactly representable halves round-trip bit-exactly through float.
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const float f = Fp16ToFloat(h);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(Fp16ToFloat(Fp16FromFloat(f))));
      continue;
    }
    EXPECT_EQ(h, Fp16FromFloat(f)) << "half bits 0x" << std::hex << bits;
  }
  // Round-to-nearest-even at the midpoint: 1 + 2^-11 is exactly between 1.0 and the next
  // half (1 + 2^-10); even mantissa (1.0) must win.
  EXPECT_EQ(Fp16FromFloat(1.0f + 0x1p-11f), Fp16FromFloat(1.0f));
  EXPECT_EQ(Fp16ToFloat(Fp16FromFloat(65504.0f)), 65504.0f);  // Largest finite half.
  EXPECT_TRUE(std::isinf(Fp16ToFloat(Fp16FromFloat(65536.0f))));  // Overflow → inf.
}

TEST(SimdEquivalenceTest, SoftmaxInPlaceBitwiseMatchesScalar) {
  std::mt19937_64 rng(0x50F7);
  for (const size_t n : kSizes) {
    for (const double temperature : {1.0, 0.25, 3.0}) {
      std::vector<double> expected = RandomDoubles(rng, n);
      for (double& x : expected) {
        x *= 400.0;  // Exercise the max-shift stabilization.
      }
      std::vector<double> actual = expected;
      scalar::SoftmaxInPlace(expected, temperature);
      SoftmaxInPlace(actual, temperature);
      ExpectBitwiseEqual(expected, actual,
                         "SoftmaxInPlace n=" + std::to_string(n) +
                             " T=" + std::to_string(temperature));
    }
  }
}

// Row lengths around the 4-lane step of the vector Exp/Gaussian kernels, up to Qwen's J = 60.
const size_t kRowSizes[] = {1, 3, 4, 5, 6, 7, 8, 15, 16, 60, 61};

TEST(SimdEquivalenceTest, GaussianRowIntoBitwiseMatchesScalar) {
  std::mt19937_64 rng(0x6A55);
  for (const size_t n : kRowSizes) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint64_t> keys(n);
      for (uint64_t& key : keys) {
        key = rng();
      }
      keys[0] = trial == 0 ? 0 : keys[0];  // Key 0 included once per size.
      std::vector<double> expected(n);
      std::vector<double> actual(n);
      scalar::GaussianRowInto(keys.data(), n, expected.data());
      GaussianRowInto(keys.data(), n, actual.data());
      ExpectBitwiseEqual(expected, actual, "GaussianRowInto n=" + std::to_string(n));
    }
  }
}

TEST(SimdEquivalenceTest, SoftmaxInPlaceRowsBitwiseMatchScalar) {
  std::mt19937_64 rng(0x50F8);
  std::normal_distribution<double> logit(0.0, 3.0);
  for (const size_t n : kRowSizes) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<double> expected(n);
      for (double& x : expected) {
        x = logit(rng);
      }
      std::vector<double> actual = expected;
      const double temperature = trial % 2 == 0 ? 1.0 : 0.7;
      scalar::SoftmaxInPlace(expected, temperature);
      SoftmaxInPlace(actual, temperature);
      ExpectBitwiseEqual(expected, actual, "SoftmaxInPlace row n=" + std::to_string(n));
    }
  }
}

TEST(SimdEquivalenceTest, SoftmaxNonFiniteGuardMatchesScalar) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {1.0, nan, 3.0},
      {nan, nan},
      {inf, 1.0, inf},
      {-inf, -inf, -inf},
      {1.0, 2.0, inf, nan, 0.5, inf, 1.5, 2.5, 3.5, -1.0},  // Crosses the 8-lane boundary.
  };
  for (const std::vector<double>& logits : cases) {
    std::vector<double> expected = logits;
    std::vector<double> actual = logits;
    scalar::SoftmaxInPlace(expected);
    SoftmaxInPlace(actual);
    ExpectBitwiseEqual(expected, actual, "non-finite softmax");
  }
}

TEST(SimdEquivalenceTest, TopKIndicesIntoMatchesScalarWithTies) {
  std::mt19937_64 rng(0x709C);
  // Values drawn from a tiny discrete set force heavy ties, so the (value desc, index asc)
  // tie-break order is exercised on every size.
  std::uniform_int_distribution<int> level(0, 3);
  for (const size_t n : kSizes) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = 0.25 * level(rng);
    }
    for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{8}, size_t{31},
                           size_t{32}, size_t{33}, n / 2, n, n + 3}) {
      std::vector<size_t> expected, actual;
      scalar::TopKIndicesInto(values, k, &expected);
      TopKIndicesInto(values, k, &actual);
      ASSERT_EQ(expected, actual) << "n=" << n << " k=" << k;
    }
  }
}

// The definition ArgMaxScore implements, written as the plain loop: the highest non-NaN
// score, equal scores going to the smaller label.
size_t NaiveArgMaxScore(const std::vector<double>& column, const std::vector<uint64_t>& labels,
                        double now, bool age_mode) {
  size_t arg = column.size();
  double best = 0.0;
  for (size_t i = 0; i < column.size(); ++i) {
    const double score = age_mode ? now - column[i] : column[i];
    if (std::isnan(score)) {
      continue;
    }
    if (arg == column.size() || score > best || (score == best && labels[i] < labels[arg])) {
      arg = i;
      best = score;
    }
  }
  return arg;
}

// Distinct labels in shuffled order, valued like the cache's insertion ranks (~insert_count,
// just below the largest uint64_t).
std::vector<uint64_t> ShuffledLabels(std::mt19937_64& rng, size_t n) {
  std::vector<uint64_t> labels(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = ~uint64_t{i + 1};
  }
  std::shuffle(labels.begin(), labels.end(), rng);
  return labels;
}

// Lane-group, four-accumulator (16-element) and tail boundaries, plus the resident counts of
// Qwen at the 22% cache (317) and a cache past 1024 entries.
const size_t kScoreSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 317, 1025};

void ExpectArgMaxAgrees(const std::vector<double>& column, const std::vector<uint64_t>& labels,
                        double now, bool age_mode, const std::string& what) {
  const size_t n = column.size();
  const size_t expected = scalar::ArgMaxScore(column.data(), labels.data(), n, now, age_mode);
  EXPECT_EQ(ArgMaxScore(column.data(), labels.data(), n, now, age_mode), expected)
      << what << " n=" << n << " age=" << age_mode;
  EXPECT_EQ(NaiveArgMaxScore(column, labels, now, age_mode), expected)
      << what << " n=" << n << " age=" << age_mode;
}

TEST(SimdEquivalenceTest, ArgMaxScoreMatchesScalarOnFuzzedColumns) {
  std::mt19937_64 rng(0xA4C5);
  std::uniform_int_distribution<int> level(0, 5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t n : kScoreSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<uint64_t> labels = ShuffledLabels(rng, n);
      // A few distinct levels force ties; NaN is the cache's free/pinned sentinel.
      std::vector<double> column(n);
      for (double& v : column) {
        const int l = level(rng);
        v = l == 0 ? nan : 0.5 * l;
      }
      for (const bool age_mode : {false, true}) {
        ExpectArgMaxAgrees(column, labels, 10.0, age_mode, "discrete");
      }
      const std::vector<float> wide = RandomFloats(rng, n, -100.0f, 100.0f);
      const std::vector<double> spread(wide.begin(), wide.end());
      for (const bool age_mode : {false, true}) {
        ExpectArgMaxAgrees(spread, labels, 50.0, age_mode, "spread");
      }
    }
  }
}

TEST(SimdEquivalenceTest, ArgMaxScoreEdgeCases) {
  std::mt19937_64 rng(0xA4C6);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const size_t n : kScoreSizes) {
    const std::vector<uint64_t> labels = ShuffledLabels(rng, n);
    const size_t smallest = static_cast<size_t>(
        std::min_element(labels.begin(), labels.end()) - labels.begin());
    for (const bool age_mode : {false, true}) {
      // All sentinels: no candidate.
      const std::vector<double> sentinels(n, nan);
      EXPECT_EQ(ArgMaxScore(sentinels.data(), labels.data(), n, 1.0, age_mode), n);
      EXPECT_EQ(scalar::ArgMaxScore(sentinels.data(), labels.data(), n, 1.0, age_mode), n);
      // Every entry tied: the smallest label wins.
      const std::vector<double> tied(n, 2.0);
      if (n > 0) {
        EXPECT_EQ(ArgMaxScore(tied.data(), labels.data(), n, 3.0, age_mode), smallest);
      }
      ExpectArgMaxAgrees(tied, labels, 3.0, age_mode, "tied");
      // +0.0 and -0.0 are equal scores: the sign never decides, the label does.
      std::vector<double> zeros(n);
      for (size_t i = 0; i < n; ++i) {
        zeros[i] = (i % 3 == 0) ? -1.0 : ((i % 2 == 0) ? 0.0 : -0.0);
      }
      ExpectArgMaxAgrees(zeros, labels, 0.0, age_mode, "signed zeros");
    }
    // Age mode: last-access values one ulp apart whose ages round to the same double tie, so
    // the younger entry at index 0 (the smallest label) wins. Comparing raw last-access
    // values would pick the older one at the end.
    if (n >= 2) {
      const double now = 1e6;
      std::vector<double> access(n, 5.0);
      access[0] = std::nextafter(0.1, 1.0);
      access[n - 1] = 0.1;
      ASSERT_EQ(now - access[0], now - access[n - 1]);
      std::vector<uint64_t> ascending(n);
      for (size_t i = 0; i < n; ++i) {
        ascending[i] = (uint64_t{1} << 62) + i;
      }
      EXPECT_EQ(ArgMaxScore(access.data(), ascending.data(), n, now, true), 0u);
      ExpectArgMaxAgrees(access, ascending, now, true, "ulp-apart ages");
    }
  }
}

}  // namespace
}  // namespace fmoe
