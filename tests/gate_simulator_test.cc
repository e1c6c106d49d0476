#include "src/moe/gate_simulator.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/math.h"

namespace fmoe {
namespace {

GateSimulator MakeGate(const ModelConfig& config = TinyTestConfig(), uint64_t seed = 1) {
  return GateSimulator(config, GateProfile{}, seed);
}

RequestRouting MakeRouting(int cluster = 0, uint64_t seed = 7) {
  RequestRouting routing;
  routing.cluster = cluster;
  routing.blend_cluster = cluster;
  routing.seed = seed;
  return routing;
}

TEST(GateSimulatorTest, DistributionIsValidProbability) {
  const GateSimulator gate = MakeGate();
  const std::vector<double> probs = gate.Distribution(MakeRouting(), 1, 0);
  ASSERT_EQ(probs.size(), 6u);
  double sum = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GateSimulatorTest, DeterministicAcrossCalls) {
  const GateSimulator gate = MakeGate();
  const RequestRouting routing = MakeRouting();
  EXPECT_EQ(gate.Distribution(routing, 3, 2), gate.Distribution(routing, 3, 2));
  EXPECT_EQ(gate.ActivatedExperts(routing, 3, 2, 10), gate.ActivatedExperts(routing, 3, 2, 10));
}

TEST(GateSimulatorTest, DeterministicAcrossInstances) {
  const GateSimulator a = MakeGate(TinyTestConfig(), 5);
  const GateSimulator b = MakeGate(TinyTestConfig(), 5);
  EXPECT_EQ(a.Distribution(MakeRouting(), 2, 1), b.Distribution(MakeRouting(), 2, 1));
}

TEST(GateSimulatorTest, DifferentSeedsGiveDifferentProfiles) {
  const GateSimulator a = MakeGate(TinyTestConfig(), 5);
  const GateSimulator b = MakeGate(TinyTestConfig(), 6);
  EXPECT_NE(a.Distribution(MakeRouting(), 2, 1), b.Distribution(MakeRouting(), 2, 1));
}

TEST(GateSimulatorTest, DecodeActivatesExactlyTopK) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  const RequestRouting routing = MakeRouting();
  const std::vector<int> activated = gate.ActivatedExperts(routing, 2, 1, 10);
  ASSERT_EQ(activated.size(), static_cast<size_t>(config.top_k));
  // Activated experts are exactly the top-K of the distribution.
  const std::vector<double> probs = gate.Distribution(routing, 2, 1);
  std::vector<size_t> top = TopKIndices(probs, static_cast<size_t>(config.top_k));
  std::sort(top.begin(), top.end());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(activated[i], static_cast<int>(top[i]));
  }
}

TEST(GateSimulatorTest, ActivatedExpertsAreSortedAndUnique) {
  const GateSimulator gate = MakeGate();
  const std::vector<int> activated = gate.ActivatedExperts(MakeRouting(), 0, 2, 64);
  EXPECT_TRUE(std::is_sorted(activated.begin(), activated.end()));
  EXPECT_EQ(std::adjacent_find(activated.begin(), activated.end()), activated.end());
}

TEST(GateSimulatorTest, PrefillActivatesAtLeastTopK) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  const std::vector<int> activated = gate.ActivatedExperts(MakeRouting(), 0, 0, 64);
  EXPECT_GE(activated.size(), static_cast<size_t>(config.top_k));
}

TEST(GateSimulatorTest, PrefillTouchesMoreExpertsThanDecodeOnAverage) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  double prefill_total = 0.0;
  double decode_total = 0.0;
  int samples = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const RequestRouting routing = MakeRouting(static_cast<int>(seed % 4), seed * 131 + 7);
    for (int layer = 0; layer < config.num_layers; ++layer) {
      prefill_total += static_cast<double>(gate.ActivatedExperts(routing, 0, layer, 64).size());
      decode_total += static_cast<double>(gate.ActivatedExperts(routing, 1, layer, 64).size());
      ++samples;
    }
  }
  EXPECT_GT(prefill_total / samples, decode_total / samples);
}

TEST(GateSimulatorTest, SameClusterSamePhaseRoutesSimilarly) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  const RequestRouting a = MakeRouting(2, 100);
  const RequestRouting b = MakeRouting(2, 200);
  // Same cluster, same iteration: distributions should be highly similar despite different
  // request seeds.
  double total_sim = 0.0;
  for (int layer = 0; layer < config.num_layers; ++layer) {
    total_sim += CosineSimilarity(gate.Distribution(a, 1, layer), gate.Distribution(b, 1, layer));
  }
  EXPECT_GT(total_sim / config.num_layers, 0.7);
}

TEST(GateSimulatorTest, DifferentClustersRouteDifferently) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  const RequestRouting a = MakeRouting(0, 100);
  const RequestRouting b = MakeRouting(3, 100);
  double same_cluster_sim = 0.0;
  double cross_cluster_sim = 0.0;
  const RequestRouting a2 = MakeRouting(0, 555);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    same_cluster_sim +=
        CosineSimilarity(gate.Distribution(a, 1, layer), gate.Distribution(a2, 1, layer));
    cross_cluster_sim +=
        CosineSimilarity(gate.Distribution(a, 1, layer), gate.Distribution(b, 1, layer));
  }
  EXPECT_GT(same_cluster_sim, cross_cluster_sim);
}

TEST(GateSimulatorTest, RotationOffsetStableWithinPhase) {
  const GateSimulator gate = MakeGate();
  const int period = gate.profile().phase_period;
  for (int layer = 0; layer < 4; ++layer) {
    for (int i = 0; i < period; ++i) {
      EXPECT_EQ(gate.RotationOffset(i, layer), gate.RotationOffset(0, layer));
    }
    EXPECT_NE(gate.RotationOffset(period, layer), gate.RotationOffset(0, layer));
  }
}

TEST(GateSimulatorTest, RotationCyclesThroughAllOffsets) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  const int period = gate.profile().phase_period;
  std::vector<bool> seen(static_cast<size_t>(config.experts_per_layer), false);
  for (int phase = 0; phase < config.experts_per_layer; ++phase) {
    seen[static_cast<size_t>(gate.RotationOffset(phase * period, 0))] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), config.experts_per_layer);
}

TEST(GateSimulatorTest, IterationEntropyLowerThanAggregatedEntropy) {
  // The Fig. 3 property: fine-grained (iteration-level) distributions are much more peaked
  // than the request-level aggregate.
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  const RequestRouting routing = MakeRouting(1, 77);
  const int iterations = 64;
  double fine_entropy = 0.0;
  std::vector<double> aggregate(static_cast<size_t>(config.experts_per_layer), 0.0);
  for (int i = 1; i <= iterations; ++i) {
    const std::vector<double> probs = gate.Distribution(routing, i, 0);
    fine_entropy += Entropy(probs);
    AddInPlace(aggregate, probs);
  }
  fine_entropy /= iterations;
  NormalizeInPlace(aggregate);
  EXPECT_LT(fine_entropy, Entropy(aggregate) * 0.8);
}

TEST(GateSimulatorTest, SpeculativeAccuracyDecaysWithDistance) {
  const ModelConfig config = TinyTestConfig();
  const GateSimulator gate = MakeGate(config);
  auto top_k_overlap = [&](int distance) {
    int matches = 0;
    int total = 0;
    for (uint64_t seed = 0; seed < 30; ++seed) {
      const RequestRouting routing = MakeRouting(static_cast<int>(seed % 4), seed * 97 + 3);
      for (int layer = 0; layer < config.num_layers; ++layer) {
        const auto truth = TopKIndices(gate.Distribution(routing, 1, layer), 2);
        const auto guess =
            TopKIndices(gate.SpeculativeDistribution(routing, 1, layer, distance), 2);
        for (size_t t : truth) {
          ++total;
          if (std::find(guess.begin(), guess.end(), t) != guess.end()) {
            ++matches;
          }
        }
      }
    }
    return static_cast<double>(matches) / total;
  };
  const double near = top_k_overlap(1);
  const double far = top_k_overlap(6);
  EXPECT_GT(near, far);
  EXPECT_GT(near, 0.5);
}

TEST(GateSimulatorTest, SpeculativeDistanceZeroIsExact) {
  const GateSimulator gate = MakeGate();
  const RequestRouting routing = MakeRouting();
  EXPECT_EQ(gate.SpeculativeDistribution(routing, 1, 0, 0), gate.Distribution(routing, 1, 0));
}

TEST(GateSimulatorTest, SpeculativeErrorsStableWithinPhase) {
  const GateSimulator gate = MakeGate();
  const RequestRouting routing = MakeRouting();
  const int period = gate.profile().phase_period;
  // Two iterations in the same phase see the same corruption (predictors repeat mistakes).
  const auto a = TopKIndices(gate.SpeculativeDistribution(routing, 1, 2, 3), 2);
  const auto b = TopKIndices(gate.SpeculativeDistribution(routing, period - 1, 2, 3), 2);
  // The corruption is identical, and within a phase the underlying profile is identical, so
  // the predicted sets should mostly coincide (noise on logits may rarely flip them).
  int overlap = 0;
  for (size_t idx : a) {
    if (std::find(b.begin(), b.end(), idx) != b.end()) {
      ++overlap;
    }
  }
  EXPECT_GE(overlap, 1);
}

TEST(GateSimulatorTest, BlendedRequestLeansTowardSecondCluster) {
  const ModelConfig config = TinyTestConfig();
  GateProfile profile;
  profile.noise_scale = 0.0;  // Isolate the blend effect.
  const GateSimulator gate(config, profile, 1);
  RequestRouting pure0 = MakeRouting(0, 1);
  RequestRouting pure1 = MakeRouting(1, 1);
  RequestRouting blended = MakeRouting(0, 1);
  blended.blend_cluster = 1;
  blended.blend_weight = 0.5;
  const auto p0 = gate.Distribution(pure0, 1, 0);
  const auto p1 = gate.Distribution(pure1, 1, 0);
  const auto pb = gate.Distribution(blended, 1, 0);
  EXPECT_GT(CosineSimilarity(pb, p1), CosineSimilarity(p0, p1));
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GateSimulatorTest, PrefillIntoMatchesDistributionAndActivatedExperts) {
  for (const ModelConfig& config : {MixtralConfig(), QwenMoeConfig()}) {
    const GateSimulator gate(config, GateProfile{}, 11);
    GateSimulator::PrefillScratch scratch;  // Reused across every call, as the engine does.
    std::vector<double> mean;
    std::vector<int> activated;
    for (int r = 0; r < 50; ++r) {
      RequestRouting routing = MakeRouting(r % 24, static_cast<uint64_t>(r) * 7919 + 1);
      routing.blend_cluster = (r * 7) % 24;
      routing.blend_weight = 0.1 * (r % 5);
      routing.noise_multiplier = 0.5 + 0.05 * r;
      for (int layer = 0; layer < config.num_layers; ++layer) {
        for (const int prompt_tokens : {1, 3, 16, 500}) {
          gate.PrefillInto(routing, layer, prompt_tokens, &mean, &activated, &scratch);
          ASSERT_TRUE(BitwiseEqual(mean, gate.Distribution(routing, 0, layer)))
              << config.name << " routing " << r << " layer " << layer << " n " << prompt_tokens;
          ASSERT_EQ(activated, gate.ActivatedExperts(routing, 0, layer, prompt_tokens))
              << config.name << " routing " << r << " layer " << layer << " n " << prompt_tokens;
        }
      }
    }
  }
}

// Property sweep: every paper model yields valid distributions at every layer.
class GateModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GateModelPropertyTest, AllLayersProduceValidDistributions) {
  const ModelConfig config = AllPaperModels()[static_cast<size_t>(GetParam())];
  const GateSimulator gate(config, GateProfile{}, 3);
  const RequestRouting routing = MakeRouting(5, 999);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const std::vector<double> probs = gate.Distribution(routing, 2, layer);
    ASSERT_EQ(probs.size(), static_cast<size_t>(config.experts_per_layer));
    const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(gate.ActivatedExperts(routing, 2, layer, 10).size(),
              static_cast<size_t>(config.top_k));
  }
}

INSTANTIATE_TEST_SUITE_P(PaperModels, GateModelPropertyTest, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace fmoe
