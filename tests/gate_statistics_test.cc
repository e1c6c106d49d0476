// Statistical properties of the gate simulator that the reproduction's validity rests on
// (DESIGN.md §3b): long-horizon load balance, within-phase routing stability, semantic
// clustering of trajectories, and the speculation-accuracy ordering between policies' views.
#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/moe/gate_simulator.h"
#include "src/util/math.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace fmoe {
namespace {

ModelConfig Mixtralish() {
  // Mixtral shape but fewer layers so the sweeps stay fast.
  ModelConfig config = MixtralConfig();
  config.num_layers = 8;
  return config;
}

RequestRouting Routing(int cluster, uint64_t seed) {
  RequestRouting routing;
  routing.cluster = cluster;
  routing.blend_cluster = cluster;
  routing.seed = seed;
  return routing;
}

TEST(GateStatisticsTest, LongHorizonActivationIsBalanced) {
  // The load-balancing-loss property: over many iterations and requests, every expert gets a
  // meaningful share of activations (no expert dominates or starves by > ~3x of fair share).
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 11);
  std::vector<uint64_t> counts(static_cast<size_t>(config.experts_per_layer), 0);
  const int layer = 2;
  uint64_t total = 0;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const RequestRouting routing = Routing(static_cast<int>(seed % 8), seed * 101 + 5);
    for (int iteration = 1; iteration <= 128; ++iteration) {
      for (size_t idx :
           TopKIndices(gate.Distribution(routing, iteration, layer),
                       static_cast<size_t>(config.top_k))) {
        counts[idx]++;
        ++total;
      }
    }
  }
  const double fair_share = static_cast<double>(total) / config.experts_per_layer;
  for (int j = 0; j < config.experts_per_layer; ++j) {
    EXPECT_GT(static_cast<double>(counts[static_cast<size_t>(j)]), fair_share / 3.0)
        << "expert " << j << " starves";
    EXPECT_LT(static_cast<double>(counts[static_cast<size_t>(j)]), fair_share * 3.0)
        << "expert " << j << " dominates";
  }
}

TEST(GateStatisticsTest, WithinPhaseRoutingIsStable) {
  // Consecutive tokens (same phase) mostly reuse the same experts — the property that makes
  // caching viable at all for real decoders.
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 13);
  const RequestRouting routing = Routing(3, 999);
  int stable = 0;
  int total = 0;
  const int period = gate.profile().phase_period;
  for (int iteration = 1; iteration + 1 < period; ++iteration) {
    for (int layer = 0; layer < config.num_layers; ++layer) {
      const auto a = gate.ActivatedExperts(routing, iteration, layer, 8);
      const auto b = gate.ActivatedExperts(routing, iteration + 1, layer, 8);
      for (int expert : a) {
        ++total;
        stable += std::find(b.begin(), b.end(), expert) != b.end() ? 1 : 0;
      }
    }
  }
  EXPECT_GT(static_cast<double>(stable) / total, 0.6);
}

TEST(GateStatisticsTest, PhaseChangeShiftsRouting) {
  // Across a phase boundary the activated sets change substantially (what creates the
  // working-set churn that offloading policies must predict).
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 13);
  const RequestRouting routing = Routing(3, 999);
  const int period = gate.profile().phase_period;
  int moved = 0;
  int total = 0;
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const auto before = gate.ActivatedExperts(routing, period - 1, layer, 8);
    const auto after = gate.ActivatedExperts(routing, period, layer, 8);
    for (int expert : before) {
      ++total;
      moved += std::find(after.begin(), after.end(), expert) == after.end() ? 1 : 0;
    }
  }
  EXPECT_GT(static_cast<double>(moved) / total, 0.3);
}

TEST(GateStatisticsTest, TrajectoriesClusterBySemantics) {
  // Full-iteration trajectories of same-cluster requests are closer (cosine) than those of
  // different-cluster requests — the signal fMoE's trajectory search exploits.
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 17);
  auto trajectory = [&](const RequestRouting& routing) {
    std::vector<double> flat;
    for (int layer = 0; layer < config.num_layers; ++layer) {
      const auto probs = gate.Distribution(routing, 1, layer);
      flat.insert(flat.end(), probs.begin(), probs.end());
    }
    return flat;
  };
  RunningStat same;
  RunningStat cross;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto a = trajectory(Routing(1, 100 + seed));
    const auto b = trajectory(Routing(1, 500 + seed));
    const auto c = trajectory(Routing(4, 100 + seed));
    same.Add(CosineSimilarity(a, b));
    cross.Add(CosineSimilarity(a, c));
  }
  EXPECT_GT(same.mean(), cross.mean() + 0.1);
}

TEST(GateStatisticsTest, SpeculationAccuracyOrdersByDistance) {
  // Top-K agreement between speculative and true routing is monotone non-increasing in
  // distance — the property Fig. 4's "Speculate" curve rests on.
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 19);
  std::vector<double> accuracy_by_distance;
  for (int distance : {1, 2, 4, 8}) {
    int matches = 0;
    int total = 0;
    for (uint64_t seed = 0; seed < 24; ++seed) {
      const RequestRouting routing = Routing(static_cast<int>(seed % 6), seed * 31 + 7);
      for (int layer = 0; layer < config.num_layers; ++layer) {
        const auto truth = TopKIndices(gate.Distribution(routing, 1, layer), 2);
        const auto guess =
            TopKIndices(gate.SpeculativeDistribution(routing, 1, layer, distance), 2);
        for (size_t t : truth) {
          ++total;
          matches += std::find(guess.begin(), guess.end(), t) != guess.end() ? 1 : 0;
        }
      }
    }
    accuracy_by_distance.push_back(static_cast<double>(matches) / total);
  }
  for (size_t i = 1; i < accuracy_by_distance.size(); ++i) {
    EXPECT_LE(accuracy_by_distance[i], accuracy_by_distance[i - 1] + 0.03);
  }
  EXPECT_GT(accuracy_by_distance.front(), accuracy_by_distance.back());
}

TEST(GateStatisticsTest, PrefillDistributionFlatterThanDecode) {
  // The prefill map aggregates many tokens, so its entropy exceeds a single decode step's.
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 23);
  RunningStat prefill;
  RunningStat decode;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const RequestRouting routing = Routing(static_cast<int>(seed % 4), seed * 71 + 3);
    for (int layer = 0; layer < config.num_layers; ++layer) {
      prefill.Add(Entropy(gate.Distribution(routing, 0, layer)));
      decode.Add(Entropy(gate.Distribution(routing, 1, layer)));
    }
  }
  EXPECT_GT(prefill.mean(), decode.mean());
}

TEST(GateStatisticsTest, NoiseMultiplierControlsPredictability) {
  // Noisier requests (higher multiplier) deviate more from their cluster's canonical
  // trajectory — the heterogeneity behind Fig. 8's score variation.
  const ModelConfig config = Mixtralish();
  const GateSimulator gate(config, GateProfile{}, 29);
  auto mean_similarity_to_reference = [&](double multiplier) {
    RequestRouting reference = Routing(2, 1);
    reference.noise_multiplier = 0.01;  // Near-canonical cluster trajectory.
    RunningStat similarity;
    for (uint64_t seed = 0; seed < 10; ++seed) {
      RequestRouting probe = Routing(2, 1000 + seed);
      probe.noise_multiplier = multiplier;
      for (int layer = 0; layer < config.num_layers; ++layer) {
        similarity.Add(CosineSimilarity(gate.Distribution(reference, 1, layer),
                                        gate.Distribution(probe, 1, layer)));
      }
    }
    return similarity.mean();
  };
  EXPECT_GT(mean_similarity_to_reference(0.3), mean_similarity_to_reference(2.0) + 0.05);
}

TEST(GateStatisticsTest, NoiseKernelIsStandardNormal) {
  // The per-expert gate noise (GaussianRowInto over hash keys) is N(0, 1): sample mean and
  // variance within 5 standard errors, and the Kolmogorov-Smirnov distance to Φ below the
  // α = 0.001 critical value 1.95/√n, over 10^6 keys fed in gate-row-sized chunks.
  constexpr size_t kSamples = 1000000;
  constexpr size_t kRow = 60;
  std::vector<uint64_t> keys(kSamples);
  uint64_t state = 0x9a7e;
  for (uint64_t& key : keys) {
    key = SplitMix64(state);
  }
  std::vector<double> g(kSamples);
  for (size_t i = 0; i < kSamples; i += kRow) {
    GaussianRowInto(keys.data() + i, std::min(kRow, kSamples - i), g.data() + i);
  }
  RunningStat moments;
  for (const double x : g) {
    moments.Add(x);
  }
  const double n = static_cast<double>(kSamples);
  EXPECT_LT(std::fabs(moments.mean()), 5.0 / std::sqrt(n));
  EXPECT_LT(std::fabs(moments.variance() - 1.0), 5.0 * std::sqrt(2.0 / n));
  std::sort(g.begin(), g.end());
  double ks = 0.0;
  for (size_t i = 0; i < kSamples; ++i) {
    const double phi = 0.5 * std::erfc(-g[i] / std::sqrt(2.0));
    ks = std::max({ks, phi - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - phi});
  }
  EXPECT_LT(ks, 1.95 / std::sqrt(n));
}

}  // namespace
}  // namespace fmoe
