#include "src/util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(DotTest, BasicDotProduct) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
}

TEST(DotTest, EmptyVectorsDotToZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Dot(empty, empty), 0.0);
}

TEST(NormTest, PythagoreanTriple) {
  const std::vector<double> v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Norm(v), 5.0);
}

TEST(CosineSimilarityTest, IdenticalVectorsScoreOne) {
  const std::vector<double> v{0.2, 0.5, 0.3};
  EXPECT_NEAR(CosineSimilarity(v, v), 1.0, 1e-12);
}

TEST(CosineSimilarityTest, OppositeVectorsScoreMinusOne) {
  const std::vector<double> a{1.0, -2.0};
  const std::vector<double> b{-1.0, 2.0};
  EXPECT_NEAR(CosineSimilarity(a, b), -1.0, 1e-12);
}

TEST(CosineSimilarityTest, OrthogonalVectorsScoreZero) {
  const std::vector<double> a{1.0, 0.0};
  const std::vector<double> b{0.0, 1.0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-12);
}

TEST(CosineSimilarityTest, ZeroVectorScoresZero) {
  const std::vector<double> a{0.0, 0.0};
  const std::vector<double> b{1.0, 1.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(CosineSimilarityTest, ScaleInvariant) {
  const std::vector<double> a{0.1, 0.7, 0.2};
  std::vector<double> scaled(a);
  for (double& v : scaled) {
    v *= 17.0;
  }
  EXPECT_NEAR(CosineSimilarity(a, scaled), 1.0, 1e-12);
}

TEST(SoftmaxTest, SumsToOne) {
  const std::vector<double> logits{1.0, 2.0, 3.0, -1.0};
  const std::vector<double> probs = Softmax(logits);
  const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SoftmaxTest, PreservesOrdering) {
  const std::vector<double> probs = Softmax(std::vector<double>{1.0, 3.0, 2.0});
  EXPECT_GT(probs[1], probs[2]);
  EXPECT_GT(probs[2], probs[0]);
}

TEST(SoftmaxTest, UniformLogitsGiveUniformProbs) {
  const std::vector<double> probs = Softmax(std::vector<double>{5.0, 5.0, 5.0, 5.0});
  for (double p : probs) {
    EXPECT_NEAR(p, 0.25, 1e-12);
  }
}

TEST(SoftmaxTest, LowTemperatureSharpens) {
  const std::vector<double> logits{1.0, 2.0};
  const std::vector<double> warm = Softmax(logits, 1.0);
  const std::vector<double> cold = Softmax(logits, 0.25);
  EXPECT_GT(cold[1], warm[1]);
}

TEST(SoftmaxTest, HandlesLargeLogitsWithoutOverflow) {
  const std::vector<double> probs = Softmax(std::vector<double>{1000.0, 999.0});
  EXPECT_TRUE(std::isfinite(probs[0]));
  EXPECT_GT(probs[0], probs[1]);
}

TEST(SoftmaxTest, EmptyInputIsNoop) {
  std::vector<double> empty;
  SoftmaxInPlace(empty);
  EXPECT_TRUE(empty.empty());
}

TEST(EntropyTest, UniformDistributionIsLogN) {
  const std::vector<double> uniform{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(Entropy(uniform), std::log(4.0), 1e-12);
}

TEST(EntropyTest, DeterministicDistributionIsZero) {
  const std::vector<double> point{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(Entropy(point), 0.0);
}

TEST(EntropyTest, PeakedLowerThanUniform) {
  const std::vector<double> peaked{0.9, 0.05, 0.03, 0.02};
  const std::vector<double> uniform{0.25, 0.25, 0.25, 0.25};
  EXPECT_LT(Entropy(peaked), Entropy(uniform));
}

TEST(NormalizedEntropyTest, UniformIsOne) {
  const std::vector<double> uniform{0.2, 0.2, 0.2, 0.2, 0.2};
  EXPECT_NEAR(NormalizedEntropy(uniform), 1.0, 1e-12);
}

TEST(NormalizedEntropyTest, SingleElementIsZero) {
  const std::vector<double> single{1.0};
  EXPECT_DOUBLE_EQ(NormalizedEntropy(single), 0.0);
}

// Regression tests for the non-finite guard: softmax used to propagate NaN/inf straight into
// the probabilities (exp(inf - inf) = NaN), poisoning every downstream cosine. The contract
// is now graceful degradation — one-hot at the largest logit, NaN never wins, uniform when
// nothing compares greater than -inf.
TEST(SoftmaxTest, NanLogitYieldsOneHotAtMax) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> logits{1.0, nan, 3.0, 2.0};
  SoftmaxInPlace(logits);
  EXPECT_EQ(logits, (std::vector<double>{0.0, 0.0, 1.0, 0.0}));
}

TEST(SoftmaxTest, PositiveInfinityWinsTiesToLowestIndex) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> logits{1.0, inf, 3.0, inf};
  SoftmaxInPlace(logits);
  EXPECT_EQ(logits, (std::vector<double>{0.0, 1.0, 0.0, 0.0}));
}

TEST(SoftmaxTest, AllNanOrNegativeInfinityFallsBackToUniform) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::vector<double> logits :
       {std::vector<double>{nan, nan, nan, nan}, std::vector<double>{-inf, -inf, -inf, -inf}}) {
    SoftmaxInPlace(logits);
    EXPECT_EQ(logits, (std::vector<double>{0.25, 0.25, 0.25, 0.25}));
  }
}

TEST(SoftmaxTest, NonFiniteBeyondFirstLaneGroupStillGuarded) {
  // The finiteness scan is vectorized 8 lanes at a time; a NaN in the scalar tail must be
  // caught just like one in a full lane group.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> logits(17, 0.5);
  logits[16] = nan;
  logits[3] = 2.0;
  SoftmaxInPlace(logits);
  std::vector<double> expected(17, 0.0);
  expected[3] = 1.0;
  EXPECT_EQ(logits, expected);
}

TEST(TopKIndicesTest, PicksLargestInOrder) {
  const std::vector<double> values{0.1, 0.5, 0.3, 0.7};
  const std::vector<size_t> top = TopKIndices(values, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopKIndicesTest, KLargerThanSizeReturnsAll) {
  const std::vector<double> values{0.3, 0.1};
  EXPECT_EQ(TopKIndices(values, 10).size(), 2u);
}

TEST(TopKIndicesTest, TiesBrokenByLowerIndex) {
  const std::vector<double> values{0.5, 0.5, 0.5};
  const std::vector<size_t> top = TopKIndices(values, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

// Property test: for random tie-heavy inputs and every k (including k = 0, k = n, k > n),
// TopKIndicesInto must return exactly the first k entries of the full (value desc, index asc)
// sort — the total order under which the selection answer is unique. This pins the
// tie-breaking contract across the small-k fast path and the general path.
TEST(TopKIndicesIntoTest, MatchesFullSortPrefixUnderHeavyTies) {
  std::mt19937_64 rng(1234);
  std::uniform_int_distribution<int> level(0, 4);
  for (const size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 33u, 100u}) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = 0.2 * level(rng);
    }
    std::vector<size_t> sorted(n);
    std::iota(sorted.begin(), sorted.end(), size_t{0});
    std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      return values[a] != values[b] ? values[a] > values[b] : a < b;
    });
    std::vector<size_t> out;
    for (size_t k = 0; k <= n + 2; ++k) {
      TopKIndicesInto(values, k, &out);
      const size_t want = std::min(k, n);
      ASSERT_EQ(out.size(), want) << "n=" << n << " k=" << k;
      for (size_t i = 0; i < want; ++i) {
        ASSERT_EQ(out[i], sorted[i]) << "n=" << n << " k=" << k << " position " << i;
      }
    }
  }
}

TEST(TopKIndicesIntoTest, ReusesOutputVectorAcrossCalls) {
  const std::vector<double> values{0.1, 0.9, 0.5};
  std::vector<size_t> out{7, 7, 7, 7, 7};  // Stale contents must be fully overwritten.
  TopKIndicesInto(values, 2, &out);
  EXPECT_EQ(out, (std::vector<size_t>{1u, 2u}));
  TopKIndicesInto(values, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MassCoverIndicesTest, KLargerThanSizeReturnsAllInSortedOrder) {
  const std::vector<double> probs{0.1, 0.7, 0.2};
  const std::vector<size_t> picked = MassCoverIndices(probs, 0.5, 10);
  EXPECT_EQ(picked, (std::vector<size_t>{1u, 2u, 0u}));
}

TEST(MassCoverIndicesTest, AllZeroProbsDegradeGracefully) {
  // A zeroed distribution can never reach a positive threshold, so the cover degenerates to
  // the whole index set (in tie-break order) — never an infinite loop or an empty pick. With
  // threshold 0 the min_count floor alone decides.
  const std::vector<double> probs{0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(MassCoverIndices(probs, 0.9, 2), (std::vector<size_t>{0u, 1u, 2u, 3u}));
  EXPECT_EQ(MassCoverIndices(probs, 0.0, 1), (std::vector<size_t>{0u}));
}

TEST(MassCoverIndicesTest, ThresholdZeroAndOneBracketTheSelection) {
  // Property: threshold 0 always returns exactly min_count entries; threshold 1 always
  // returns the whole distribution (mass can only reach 1 with every entry included).
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (const size_t n : {1u, 3u, 8u, 20u}) {
    std::vector<double> probs(n);
    double sum = 0.0;
    for (double& p : probs) {
      p = dist(rng);
      sum += p;
    }
    for (double& p : probs) {
      p /= sum;
    }
    EXPECT_EQ(MassCoverIndices(probs, 0.0, 1).size(), 1u) << "n=" << n;
    EXPECT_EQ(MassCoverIndices(probs, 1.0, 1).size(), n) << "n=" << n;
  }
}

TEST(MassCoverIndicesTest, EmptyDistributionSelectsNothing) {
  EXPECT_TRUE(MassCoverIndices({}, 0.5, 3).empty());
}

TEST(MassCoverIndicesTest, CoversThreshold) {
  const std::vector<double> probs{0.5, 0.3, 0.15, 0.05};
  const std::vector<size_t> picked = MassCoverIndices(probs, 0.75, 1);
  // 0.5 alone is below 0.75; 0.5 + 0.3 = 0.8 covers it.
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 0u);
  EXPECT_EQ(picked[1], 1u);
}

TEST(MassCoverIndicesTest, RespectsMinCountEvenWhenThresholdMet) {
  const std::vector<double> probs{0.9, 0.05, 0.03, 0.02};
  const std::vector<size_t> picked = MassCoverIndices(probs, 0.5, 3);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(MassCoverIndicesTest, ZeroThresholdReturnsMinCount) {
  const std::vector<double> probs{0.4, 0.3, 0.2, 0.1};
  EXPECT_EQ(MassCoverIndices(probs, 0.0, 2).size(), 2u);
}

TEST(MassCoverIndicesTest, MinCountCappedAtSize) {
  const std::vector<double> probs{0.6, 0.4};
  EXPECT_EQ(MassCoverIndices(probs, 0.0, 10).size(), 2u);
}

TEST(MassCoverIndicesTest, FullThresholdSelectsEverything) {
  const std::vector<double> probs{0.4, 0.3, 0.2, 0.1};
  EXPECT_EQ(MassCoverIndices(probs, 1.0, 1).size(), 4u);
}

// The sort-based selection MassCoverIndices replaced: fully order all entries, then take the
// shortest prefix meeting both conditions.
std::vector<size_t> MassCoverBySort(std::span<const double> probs, double threshold,
                                    size_t min_count) {
  const std::vector<size_t> order = TopKIndices(probs, probs.size());
  min_count = std::min(min_count, probs.size());
  std::vector<size_t> picked;
  double mass = 0.0;
  for (size_t idx : order) {
    if (picked.size() >= min_count && mass >= threshold) {
      break;
    }
    picked.push_back(idx);
    mass += probs[idx];
  }
  return picked;
}

TEST(MassCoverIndicesTest, SelectionMatchesSortReferenceWithTies) {
  std::mt19937_64 rng(0x3A55);
  std::uniform_int_distribution<int> level(0, 4);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (const size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 33u, 60u, 64u, 128u}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Even trials draw from five levels, so ties (including all-zero runs) are common.
      std::vector<double> probs(n);
      for (double& p : probs) {
        p = trial % 2 == 0 ? 0.25 * level(rng) : uniform(rng);
      }
      NormalizeInPlace(probs);
      for (const double threshold : {0.0, 0.1, 0.5, 0.9, 1.0, 1.5}) {
        for (const size_t min_count : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, n + 1}) {
          ASSERT_EQ(MassCoverIndices(probs, threshold, min_count),
                    MassCoverBySort(probs, threshold, min_count))
              << "n=" << n << " trial=" << trial << " threshold=" << threshold
              << " min_count=" << min_count;
        }
      }
    }
  }
}

// The repeated selection MassCoverIndices replaced: each step takes the best entry ranked
// after the previous pick under (value desc, index asc), until the cover is met.
std::vector<size_t> MassCoverByRepeatedSelection(std::span<const double> probs,
                                                 double threshold, size_t min_count) {
  const size_t n = probs.size();
  min_count = std::min(min_count, n);
  std::vector<size_t> picked;
  double mass = 0.0;
  while (picked.size() < n && (picked.size() < min_count || mass < threshold)) {
    size_t best = n;
    for (size_t j = 0; j < n; ++j) {
      if (!picked.empty()) {
        const size_t last = picked.back();
        if (probs[j] > probs[last] || (probs[j] == probs[last] && j <= last)) {
          continue;
        }
      }
      if (best == n || probs[j] > probs[best]) {
        best = j;
      }
    }
    picked.push_back(best);
    mass += probs[best];
  }
  return picked;
}

TEST(MassCoverIndicesTest, SelectionMatchesRepeatedSelectionReference) {
  std::mt19937_64 rng(0x5E1EC7);
  std::uniform_int_distribution<int> level(0, 3);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (const size_t n : {0u, 1u, 2u, 5u, 8u, 31u, 60u, 96u, 128u}) {
    for (int trial = 0; trial < 24; ++trial) {
      // One trial in three is tie-heavy (four levels, zeros included); one is raw,
      // unnormalized uniforms with signed zeros mixed in.
      std::vector<double> probs(n);
      for (double& p : probs) {
        switch (trial % 3) {
          case 0:
            p = 0.25 * level(rng);
            break;
          case 1:
            p = uniform(rng);
            break;
          default:
            p = uniform(rng) < 0.3 ? (uniform(rng) < 0.5 ? -0.0 : 0.0) : uniform(rng);
            break;
        }
      }
      if (trial % 3 != 2) {
        NormalizeInPlace(probs);
      }
      for (const double threshold : {0.0, 0.05, 0.5, 0.8, 0.95, 1.0, 2.0}) {
        for (const size_t min_count : {size_t{0}, size_t{1}, size_t{3}, n / 2, n + 1}) {
          ASSERT_EQ(MassCoverIndices(probs, threshold, min_count),
                    MassCoverByRepeatedSelection(probs, threshold, min_count))
              << "n=" << n << " trial=" << trial << " threshold=" << threshold
              << " min_count=" << min_count;
        }
      }
    }
  }
}

TEST(NormalizeInPlaceTest, SumsToOne) {
  std::vector<double> values{2.0, 6.0, 2.0};
  NormalizeInPlace(values);
  EXPECT_NEAR(values[0], 0.2, 1e-12);
  EXPECT_NEAR(values[1], 0.6, 1e-12);
}

TEST(NormalizeInPlaceTest, ZeroSumBecomesUniform) {
  std::vector<double> values{0.0, 0.0, 0.0, 0.0};
  NormalizeInPlace(values);
  for (double v : values) {
    EXPECT_NEAR(v, 0.25, 1e-12);
  }
}

TEST(ClipTest, ClampsBothSides) {
  EXPECT_DOUBLE_EQ(Clip(-0.5, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clip(1.5, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clip(0.5, 0.0, 1.0), 0.5);
}

TEST(AddInPlaceTest, ElementwiseAddition) {
  std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{0.5, 0.5};
  AddInPlace(a, b);
  EXPECT_DOUBLE_EQ(a[0], 1.5);
  EXPECT_DOUBLE_EQ(a[1], 2.5);
}

// Property sweep: softmax output is always a valid distribution for many temperatures.
class SoftmaxPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SoftmaxPropertyTest, ProducesValidDistribution) {
  const double temperature = GetParam();
  const std::vector<double> logits{-3.0, 0.0, 2.5, 7.0, -1.2, 0.4};
  const std::vector<double> probs = Softmax(logits, temperature);
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SoftmaxPropertyTest,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 10.0));

// Property sweep: MassCoverIndices always returns unique indices, sorted by probability.
class MassCoverPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(MassCoverPropertyTest, SelectionIsGreedyAndUnique) {
  const double threshold = GetParam();
  const std::vector<double> probs{0.05, 0.32, 0.18, 0.02, 0.25, 0.1, 0.08};
  const std::vector<size_t> picked = MassCoverIndices(probs, threshold, 2);
  ASSERT_GE(picked.size(), 2u);
  for (size_t i = 1; i < picked.size(); ++i) {
    EXPECT_GE(probs[picked[i - 1]], probs[picked[i]]);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(picked[i], picked[j]);
    }
  }
  double mass = 0.0;
  for (size_t idx : picked) {
    mass += probs[idx];
  }
  if (picked.size() < probs.size()) {
    EXPECT_GE(mass, threshold - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MassCoverPropertyTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.99));

TEST(FloatKernelTest, DotFMatchesDoubleDot) {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<double> ad;
  std::vector<double> bd;
  for (int i = 0; i < 11; ++i) {  // Odd length exercises the unroll tail.
    a.push_back(0.25f * static_cast<float>(i) - 1.0f);
    b.push_back(0.5f - 0.125f * static_cast<float>(i));
    ad.push_back(a.back());
    bd.push_back(b.back());
  }
  EXPECT_NEAR(DotF(a, b), Dot(ad, bd), 1e-12);
  EXPECT_EQ(DotF(std::span<const float>{}, std::span<const float>{}), 0.0);
}

TEST(FloatKernelTest, DotBatchedWalksRowsWithStride) {
  // 3 rows, stride 5, query dim 3: trailing pad floats must be ignored.
  const std::vector<float> rows = {1, 2, 3, 99, 99,   //
                                   0, 1, 0, 99, 99,   //
                                   -1, -1, -1, 99, 99};
  const std::vector<float> query = {2, 0, 1};
  std::vector<double> out(3, 0.0);
  DotBatched(query, rows.data(), 5, 3, out.data());
  EXPECT_EQ(out[0], 5.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], -3.0);
  DotBatched(query, rows.data(), 5, 3, out.data(), /*accumulate=*/true);
  EXPECT_EQ(out[0], 10.0);  // Accumulation doubles each dot.
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], -6.0);
}

TEST(FloatKernelTest, CosineAgainstRowsMatchesScalarCosine) {
  const std::vector<float> rows = {1, 0, 0, 0,   //
                                   1, 1, 0, 0,   //
                                   0, 0, 0, 0};  // Zero-norm row.
  const std::vector<float> query = {1, 1, 0, 0};
  const double inv_qnorm = 1.0 / std::sqrt(DotF(query, query));
  // Inverse row norms; 0 stands in for the zero-norm row.
  const std::vector<double> inv_row_norms = {1.0, 1.0 / std::sqrt(2.0), 0.0};
  std::vector<double> out(3, -9.0);
  CosineAgainstRows(query, inv_qnorm, rows.data(), 4, 3, inv_row_norms.data(), out.data());
  const std::vector<double> qd = {1, 1, 0, 0};
  EXPECT_NEAR(out[0], CosineSimilarity(qd, std::vector<double>{1, 0, 0, 0}), 1e-12);
  EXPECT_NEAR(out[1], 1.0, 1e-12);
  EXPECT_EQ(out[2], 0.0);  // Zero-norm row scores 0, the CosineSimilarity convention.
}

TEST(FloatKernelTest, CosineAgainstRowsZeroQueryNormScoresZero) {
  const std::vector<float> rows = {1, 2, 3, 4};
  const std::vector<float> query = {0, 0, 0, 0};
  const std::vector<double> inv_row_norms = {1.0 / 5.477};
  std::vector<double> out(1, -9.0);
  CosineAgainstRows(query, /*inv_query_norm=*/0.0, rows.data(), 4, 1, inv_row_norms.data(),
                    out.data());
  EXPECT_EQ(out[0], 0.0);
}

TEST(FloatKernelTest, AccumulateColumnsMatchesPerRowDots) {
  // 3 coefficients x 5 rows, column-major with stride 7 (trailing pad must be ignored).
  const size_t stride = 7;
  const std::vector<float> cols = {1, 2,  3,  4, 5,  -1, -1,   // column 0
                                   0, 1,  0,  2, 0,  -1, -1,   // column 1
                                   5, -5, 10, 0, -2, -1, -1};  // column 2
  const std::vector<float> coeffs = {2, 3, 0.5};
  std::vector<double> out(5, 1.0);  // Accumulates on top of existing values.
  AccumulateColumns(coeffs, cols.data(), stride, 5, out.data());
  for (size_t i = 0; i < 5; ++i) {
    double expected = 1.0;
    for (size_t k = 0; k < coeffs.size(); ++k) {
      expected += static_cast<double>(coeffs[k]) * static_cast<double>(cols[k * stride + i]);
    }
    EXPECT_NEAR(out[i], expected, 1e-6) << "row " << i;
  }
}

TEST(FloatKernelTest, AccumulateColumnsCrossesTileAndFlushBoundaries) {
  // Row count past the 2048-row tile and coefficient count past the 16-coeff flush block, so
  // both internal boundaries are exercised; results must equal an independent double scan.
  const size_t count = 2048 + 37;
  const size_t num_coeffs = 35;
  std::vector<float> cols(num_coeffs * count);
  std::vector<float> coeffs(num_coeffs);
  for (size_t k = 0; k < num_coeffs; ++k) {
    coeffs[k] = 0.01f * static_cast<float>(k % 13) - 0.05f;
    for (size_t i = 0; i < count; ++i) {
      cols[k * count + i] = 0.001f * static_cast<float>((k * 31 + i * 7) % 97);
    }
  }
  std::vector<double> out(count, 0.0);
  AccumulateColumns(coeffs, cols.data(), count, count, out.data());
  for (size_t i = 0; i < count; i += 251) {
    double expected = 0.0;
    for (size_t k = 0; k < num_coeffs; ++k) {
      expected += static_cast<double>(coeffs[k]) * static_cast<double>(cols[k * count + i]);
    }
    EXPECT_NEAR(out[i], expected, 1e-6) << "row " << i;
  }
}

TEST(FloatKernelTest, AccumulateColumnsIsPartitionIndependent) {
  // Computing [0, count) in one call must be bitwise identical to computing two sub-ranges:
  // a row's result never depends on which other rows share the call.
  const size_t count = 1000;
  const std::vector<float> coeffs = {0.5f, -1.25f, 2.0f, 0.125f};
  std::vector<float> cols(coeffs.size() * count);
  for (size_t k = 0; k < coeffs.size(); ++k) {
    for (size_t i = 0; i < count; ++i) {
      cols[k * count + i] = 0.01f * static_cast<float>((k + 3 * i) % 53) - 0.2f;
    }
  }
  std::vector<double> whole(count, 0.0);
  AccumulateColumns(coeffs, cols.data(), count, count, whole.data());
  std::vector<double> split(count, 0.0);
  const size_t cut = 333;
  AccumulateColumns(coeffs, cols.data(), count, cut, split.data());
  AccumulateColumns(coeffs, cols.data() + cut, count, count - cut, split.data() + cut);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(whole[i], split[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace fmoe
