// Deterministic transcendental kernels (DESIGN.md §5g): Log, Exp and CosTwoPi are pinned to
// committed bit patterns at fixed inputs, so a change of compiler, libm or SIMD backend cannot
// move them unnoticed, and checked against the platform's std:: functions — in this test only
// — for their documented error bounds. The dispatched point functions must also equal their
// fmoe::scalar:: twins bit for bit.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "src/util/math.h"

namespace fmoe {
namespace {

struct BitCase {
  double input;
  uint64_t expected_bits;
};

constexpr double kSqrtHalf = 0x1.6a09e667f3bcdp-1;
constexpr double kExpCutoff = -0x1.74910d52d3052p+9;  // ≈ ln 2^-1075 = −745.1332191019412.

// Distance between a and b in units in the last place of b.
double UlpError(double a, double b) {
  const double ulp = std::nextafter(std::fabs(b), std::numeric_limits<double>::infinity()) -
                     std::fabs(b);
  return std::fabs(a - b) / ulp;
}

void ExpectBits(double (*kernel)(double), double (*scalar_kernel)(double),
                const BitCase& c, const char* name) {
  const double value = kernel(c.input);
  EXPECT_EQ(std::bit_cast<uint64_t>(value), c.expected_bits)
      << name << "(" << std::hexfloat << c.input << ") = " << value << ", pinned "
      << std::bit_cast<double>(c.expected_bits);
  EXPECT_EQ(std::bit_cast<uint64_t>(scalar_kernel(c.input)), std::bit_cast<uint64_t>(value))
      << "scalar::" << name << "(" << std::hexfloat << c.input << ")";
}

TEST(MathKernelsTest, LogBitTable) {
  const BitCase cases[] = {
      {1e-300, 0xc085963447f87fb5ULL},
      {0x1p-1022, 0xc086232bdd7abcd2ULL},
      {0.5, 0xbfe62e42fefa39efULL},
      {std::nextafter(kSqrtHalf, 0.0), 0xbfd62e42fefa39f1ULL},
      {kSqrtHalf, 0xbfd62e42fefa39eeULL},
      {std::nextafter(kSqrtHalf, 1.0), 0xbfd62e42fefa39ebULL},
      {1.0 - 0x1p-53, 0xbca0000000000000ULL},
      {1.0, 0x0000000000000000ULL},
      {2.0, 0x3fe62e42fefa39efULL},
      {10.0, 0x40026bb1bbb55516ULL},
  };
  for (const BitCase& c : cases) {
    ExpectBits(Log, scalar::Log, c, "Log");
  }
}

TEST(MathKernelsTest, CosTwoPiBitTable) {
  const BitCase cases[] = {
      {0.0, 0x3ff0000000000000ULL},
      {0x1p-1074, 0x3ff0000000000000ULL},
      {std::nextafter(0.125, 0.0), 0x3fe6a09e667f3bcdULL},
      {0.125, 0x3fe6a09e667f3bccULL},
      {std::nextafter(0.125, 1.0), 0x3fe6a09e667f3bccULL},
      {std::nextafter(0.25, 0.0), 0x3ca921fb54442d18ULL},
      {0.25, 0x0000000000000000ULL},
      {std::nextafter(0.25, 1.0), 0xbcb921fb54442d18ULL},
      {std::nextafter(0.375, 0.0), 0xbfe6a09e667f3bcaULL},
      {0.375, 0xbfe6a09e667f3bccULL},
      {std::nextafter(0.375, 1.0), 0xbfe6a09e667f3bcfULL},
      {std::nextafter(0.5, 0.0), 0xbff0000000000000ULL},
      {0.5, 0xbff0000000000000ULL},
      {std::nextafter(0.5, 1.0), 0xbff0000000000000ULL},
      {std::nextafter(0.75, 0.0), 0xbcc921fb54442d18ULL},
      {0.75, 0x0000000000000000ULL},
      {std::nextafter(0.75, 1.0), 0x3cc921fb54442d18ULL},
      {1.0 - 0x1p-53, 0x3ff0000000000000ULL},
  };
  for (const BitCase& c : cases) {
    ExpectBits(CosTwoPi, scalar::CosTwoPi, c, "CosTwoPi");
  }
}

TEST(MathKernelsTest, ExpBitTable) {
  const BitCase cases[] = {
      {0.0, 0x3ff0000000000000ULL},
      {-0.0, 0x3ff0000000000000ULL},
      {-708.0, 0x0017c8ab2288c9abULL},
      {-745.0, 0x0000000000000001ULL},  // Smallest subnormal.
      {std::nextafter(kExpCutoff, -1e9), 0x0000000000000000ULL},
      {kExpCutoff, 0x0000000000000000ULL},
      {std::nextafter(kExpCutoff, 0.0), 0x0000000000000001ULL},
      {1.0, 0x4005bf0a8b14576aULL},
      {-1.0, 0x3fd78b56362cef38ULL},
      {-0.5, 0x3fe368b2fc6f960aULL},
  };
  for (const BitCase& c : cases) {
    ExpectBits(Exp, scalar::Exp, c, "Exp");
  }
}

TEST(MathKernelsTest, ExpUnderflowAndOverflowRules) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {-746.0, -1000.0, -1e300, -inf}) {
    EXPECT_EQ(std::bit_cast<uint64_t>(Exp(x)), 0u) << x;  // +0, never −0.
  }
  EXPECT_EQ(Exp(710.0), inf);
  EXPECT_EQ(Exp(inf), inf);
  EXPECT_TRUE(std::isnan(Exp(std::numeric_limits<double>::quiet_NaN())));
  // Just below ln(DBL_MAX) the result is finite.
  EXPECT_TRUE(std::isfinite(Exp(0x1.62e42fefa39efp+9)));
}

TEST(MathKernelsTest, LogWithinFourUlpOfStd) {
  std::mt19937_64 rng(0x106);
  std::uniform_int_distribution<uint64_t> normal_bits(0x0010000000000000ULL,
                                                      0x7fefffffffffffffULL);
  for (int i = 0; i < 200000; ++i) {
    // Alternate unit uniforms (the Box-Muller domain) with arbitrary normal doubles.
    const double x = i % 2 == 0 ? std::max(static_cast<double>(rng() >> 11) * 0x1p-53, 1e-300)
                                : std::bit_cast<double>(normal_bits(rng));
    const double expected = std::log(x);
    if (expected == 0.0) {
      EXPECT_EQ(Log(x), 0.0);
      continue;
    }
    ASSERT_LE(UlpError(Log(x), expected), 4.0) << std::hexfloat << x;
  }
}

TEST(MathKernelsTest, ExpWithinFourUlpOfStd) {
  std::mt19937_64 rng(0xE4B);
  // Normal results only: below ln(DBL_MIN) both sides lose precision to gradual underflow.
  std::uniform_real_distribution<double> wide(-708.39, 709.78);
  std::uniform_real_distribution<double> softmax(-30.0, 0.0);
  for (int i = 0; i < 200000; ++i) {
    const double x = i % 2 == 0 ? softmax(rng) : wide(rng);
    ASSERT_LE(UlpError(Exp(x), std::exp(x)), 4.0) << std::hexfloat << x;
  }
}

TEST(MathKernelsTest, CosTwoPiWithinAbsoluteBoundOfStd) {
  std::mt19937_64 rng(0xC05);
  for (int i = 0; i < 200000; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
    // Long double keeps the std:: reference's argument rounding out of the comparison.
    const long double angle = 2.0L * std::numbers::pi_v<long double> * u;
    const double expected = static_cast<double>(std::cos(angle));
    ASSERT_LE(std::fabs(CosTwoPi(u) - expected), 2e-15) << std::hexfloat << u;
  }
}

TEST(MathKernelsTest, PointFunctionsMatchScalarTwins) {
  std::mt19937_64 rng(0x7A1);
  std::uniform_real_distribution<double> exp_arg(-750.0, 710.0);
  for (int i = 0; i < 20000; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
    const double x = std::max(u, 1e-300);
    const double e = exp_arg(rng);
    ASSERT_EQ(std::bit_cast<uint64_t>(Log(x)), std::bit_cast<uint64_t>(scalar::Log(x)));
    ASSERT_EQ(std::bit_cast<uint64_t>(CosTwoPi(u)), std::bit_cast<uint64_t>(scalar::CosTwoPi(u)));
    ASSERT_EQ(std::bit_cast<uint64_t>(Exp(e)), std::bit_cast<uint64_t>(scalar::Exp(e)));
  }
}

}  // namespace
}  // namespace fmoe
