#include "src/moe/gate_simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/logging.h"
#include "src/util/math.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

int Gcd(int a, int b) { return b == 0 ? a : Gcd(b, a % b); }

// Stateless 64-bit mix of up to four keys; the basis of all deterministic noise here.
uint64_t MixKeys(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  uint64_t state = a * 0x9e3779b97f4a7c15ULL;
  state ^= b + 0xbf58476d1ce4e5b9ULL + (state << 6) + (state >> 2);
  state ^= c + 0x94d049bb133111ebULL + (state << 6) + (state >> 2);
  state ^= d + 0x2545f4914f6cdd1dULL + (state << 6) + (state >> 2);
  return SplitMix64(state);
}

// Experts per GaussianRowInto call; every shipped model's J fits in one.
constexpr int kNoiseChunk = 128;

// Calls apply(j, g_j) for j in [0, J), g_j the standard Gaussian keyed by key_of(j); the
// Gaussians come from one GaussianRowInto call per kNoiseChunk experts.
template <typename KeyOf, typename Apply>
void ForEachNoise(int J, const KeyOf& key_of, const Apply& apply) {
  uint64_t keys[kNoiseChunk];
  double noise[kNoiseChunk];
  for (int j0 = 0; j0 < J; j0 += kNoiseChunk) {
    const int m = std::min(kNoiseChunk, J - j0);
    for (int t = 0; t < m; ++t) {
      keys[t] = key_of(j0 + t);
    }
    GaussianRowInto(keys, static_cast<size_t>(m), noise);
    for (int t = 0; t < m; ++t) {
      apply(j0 + t, noise[t]);
    }
  }
}

}  // namespace

GateSimulator::GateSimulator(const ModelConfig& config, const GateProfile& profile,
                             uint64_t seed)
    : config_(config), profile_(profile), seed_(seed) {
  FMOE_CHECK(config.num_layers > 0 && config.experts_per_layer > 0);
  FMOE_CHECK(config.top_k >= 1 && config.top_k <= config.experts_per_layer);
  FMOE_CHECK(profile.num_clusters > 0);

  const int L = config_.num_layers;
  const int J = config_.experts_per_layer;

  // Static affinity texture: for every (cluster, layer), a peaked logit profile with a
  // primary, secondary, and tertiary expert plus low-amplitude jitter on the rest.
  Rng rng(seed);
  base_logits_.resize(static_cast<size_t>(profile_.num_clusters));
  for (int c = 0; c < profile_.num_clusters; ++c) {
    auto& cluster_logits = base_logits_[static_cast<size_t>(c)];
    cluster_logits.assign(static_cast<size_t>(L) * static_cast<size_t>(J), 0.0);
    for (int l = 0; l < L; ++l) {
      const int primary = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(J)));
      int secondary = primary;
      int tertiary = primary;
      if (J > 1) {
        secondary = (primary + 1 +
                     static_cast<int>(rng.NextBounded(static_cast<uint64_t>(J - 1)))) % J;
        do {
          tertiary = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(J)));
        } while (tertiary == primary);
      }
      for (int j = 0; j < J; ++j) {
        double logit = profile_.base_logit_jitter * rng.NextDouble();
        if (j == primary) {
          logit += profile_.primary_logit;
        } else if (j == secondary) {
          logit += profile_.secondary_logit;
        } else if (j == tertiary) {
          logit += profile_.tertiary_logit;
        }
        cluster_logits[static_cast<size_t>(l) * static_cast<size_t>(J) +
                       static_cast<size_t>(j)] = logit;
      }
    }
  }

  // Rotation strides: coprime with J so the primary expert cycles through all J experts over
  // iterations, giving the load-balanced request-level aggregate of Fig. 3.
  layer_strides_.resize(static_cast<size_t>(L));
  for (int l = 0; l < L; ++l) {
    if (J == 1) {
      layer_strides_[static_cast<size_t>(l)] = 0;
      continue;
    }
    int stride = 1 + (l % (J - 1));
    while (Gcd(stride, J) != 1) {
      stride = (stride % (J - 1)) + 1;
    }
    layer_strides_[static_cast<size_t>(l)] = stride;
  }
}

int GateSimulator::RotationOffset(int iteration, int layer) const {
  const int J = config_.experts_per_layer;
  if (J <= 1) {
    return 0;
  }
  const int phase = iteration / std::max(profile_.phase_period, 1);
  return (phase * layer_strides_[static_cast<size_t>(layer)]) % J;
}

const double& GateSimulator::BaseLogit(int cluster, int layer, int expert) const {
  return base_logits_[static_cast<size_t>(cluster)]
                     [static_cast<size_t>(layer) * static_cast<size_t>(config_.experts_per_layer) +
                      static_cast<size_t>(expert)];
}

std::vector<double> GateSimulator::Logits(const RequestRouting& routing, int iteration,
                                          int layer, uint64_t token_salt) const {
  std::vector<double> logits;
  LogitsInto(routing, iteration, layer, token_salt, &logits);
  return logits;
}

void GateSimulator::LogitsInto(const RequestRouting& routing, int iteration, int layer,
                               uint64_t token_salt, std::vector<double>* out) const {
  const int J = config_.experts_per_layer;
  const int rot = RotationOffset(iteration, layer);
  const int c0 = routing.cluster % profile_.num_clusters;
  const int c1 = routing.blend_cluster % profile_.num_clusters;
  const double w = Clip(routing.blend_weight, 0.0, 0.9);

  std::vector<double>& logits = *out;
  logits.resize(static_cast<size_t>(J));
  const uint64_t iteration_layer =
      (static_cast<uint64_t>(static_cast<uint32_t>(iteration)) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(layer));
  ForEachNoise(
      J,
      [&](int j) {
        return MixKeys(routing.seed ^ seed_, iteration_layer, static_cast<uint64_t>(j),
                       token_salt);
      },
      [&](int j, double g) {
        // The profile is indexed at (j - rot) mod J: the whole affinity pattern shifts by
        // `rot` experts at this iteration.
        const int src = ((j - rot) % J + J) % J;
        const double base =
            (1.0 - w) * BaseLogit(c0, layer, src) + w * BaseLogit(c1, layer, src);
        const double noise = profile_.noise_scale * routing.noise_multiplier * g;
        logits[static_cast<size_t>(j)] = base + noise;
      });
}

std::vector<double> GateSimulator::TokenDistribution(const RequestRouting& routing,
                                                     int iteration, int layer,
                                                     uint64_t token_salt) const {
  std::vector<double> logits = Logits(routing, iteration, layer, token_salt);
  SoftmaxInPlace(logits, profile_.temperature);
  return logits;
}

std::vector<double> GateSimulator::Distribution(const RequestRouting& routing, int iteration,
                                                int layer) const {
  std::vector<double> out;
  DistributionInto(routing, iteration, layer, &out);
  return out;
}

void GateSimulator::DistributionInto(const RequestRouting& routing, int iteration, int layer,
                                     std::vector<double>* out) const {
  FMOE_CHECK(layer >= 0 && layer < config_.num_layers);
  FMOE_CHECK(iteration >= 0);
  if (iteration > 0) {
    LogitsInto(routing, iteration, layer, /*token_salt=*/0, out);
    SoftmaxInPlace(*out, profile_.temperature);
    return;
  }
  PrefillScratch scratch;
  PrefillInto(routing, layer, /*prompt_tokens=*/0, out, /*activated=*/nullptr, &scratch);
}

void GateSimulator::PrefillInto(const RequestRouting& routing, int layer, int prompt_tokens,
                                std::vector<double>* mean, std::vector<int>* activated,
                                PrefillScratch* scratch) const {
  FMOE_CHECK(layer >= 0 && layer < config_.num_layers);
  // The recorded map entry is the mean gate output over the sampled prompt tokens; the
  // activated experts are the union of top-K over the first min(samples, prompt_tokens) of
  // those same tokens, so one pass serves both.
  const int mean_samples = std::max(1, profile_.prefill_token_samples);
  const int union_samples =
      std::max(1, std::min(profile_.prefill_token_samples, std::max(prompt_tokens, 1)));
  const int samples = mean != nullptr ? mean_samples : union_samples;
  const size_t k = static_cast<size_t>(config_.top_k);
  if (mean != nullptr) {
    mean->assign(static_cast<size_t>(config_.experts_per_layer), 0.0);
  }
  if (activated != nullptr) {
    activated->clear();
  }
  std::vector<double>& token = scratch->token;
  for (int t = 0; t < samples; ++t) {
    LogitsInto(routing, /*iteration=*/0, layer, static_cast<uint64_t>(t) + 1, &token);
    SoftmaxInPlace(token, profile_.temperature);
    if (mean != nullptr) {
      AddInPlace(*mean, token);
    }
    if (activated != nullptr && t < union_samples) {
      TopKIndicesInto(token, k, &scratch->top);
      activated->insert(activated->end(), scratch->top.begin(), scratch->top.end());
    }
  }
  if (mean != nullptr) {
    NormalizeInPlace(*mean);
  }
  if (activated != nullptr) {
    std::sort(activated->begin(), activated->end());
    activated->erase(std::unique(activated->begin(), activated->end()), activated->end());
  }
}

std::vector<int> GateSimulator::ActivatedExperts(const RequestRouting& routing, int iteration,
                                                 int layer, int prompt_tokens) const {
  std::vector<int> out;
  if (iteration > 0) {
    const std::vector<double> p = TokenDistribution(routing, iteration, layer, 0);
    const std::vector<size_t> top = TopKIndices(p, static_cast<size_t>(config_.top_k));
    out.assign(top.begin(), top.end());
    std::sort(out.begin(), out.end());
    return out;
  }
  PrefillScratch scratch;
  PrefillInto(routing, layer, prompt_tokens, /*mean=*/nullptr, &out, &scratch);
  return out;
}

std::vector<double> GateSimulator::SpeculativeDistribution(const RequestRouting& routing,
                                                           int iteration, int layer,
                                                           int distance) const {
  if (distance <= 0) {
    return Distribution(routing, iteration, layer);
  }
  // Logit-space corruption growing as sqrt(distance): predicting further ahead is harder (a
  // deeper stack of residual updates separates the predictor's input from the target gate).
  // The corruption is keyed by the routing *phase*, not the iteration, so a predictor's errors
  // are stable across consecutive tokens — real speculative predictors see near-identical
  // hidden states token-to-token and repeat their mistakes rather than redrawing them.
  const int J = config_.experts_per_layer;
  const int phase = iteration / std::max(profile_.phase_period, 1);
  const double sigma =
      profile_.speculative_sigma * std::sqrt(static_cast<double>(distance));
  std::vector<double> logits = Logits(routing, iteration, layer, /*token_salt=*/0);
  const uint64_t layer_distance = (static_cast<uint64_t>(static_cast<uint32_t>(layer)) << 8) |
                                  static_cast<uint64_t>(static_cast<uint32_t>(distance));
  ForEachNoise(
      J,
      [&](int j) {
        return MixKeys(routing.seed ^ seed_ ^ 0xabcdef1234567890ULL,
                       static_cast<uint64_t>(static_cast<uint32_t>(phase)), layer_distance,
                       static_cast<uint64_t>(j));
      },
      [&](int j, double g) { logits[static_cast<size_t>(j)] += sigma * g; });
  SoftmaxInPlace(logits, profile_.temperature);
  return logits;
}

}  // namespace fmoe
