// Synthetic gate-network simulator.
//
// This is the reproduction's substitute for real MoE model weights (DESIGN.md §2). It produces,
// for every (request, iteration, layer), the gate probability distribution P_l^(i) over the J
// experts. The generator is built to reproduce the statistical structure the paper measures on
// Mixtral/Qwen/Phi with LMSYS/ShareGPT prompts:
//
//   * Iteration-level distributions are peaked (low entropy, Fig. 3b) — each semantic cluster
//     has a per-layer expert-affinity profile with a primary/secondary/tertiary expert.
//   * Request-level aggregates are balanced (high entropy, Fig. 3c) — the affinity profile
//     rotates across experts as decoding proceeds (modelling load-balancing-loss training:
//     every expert is non-trivial over a long horizon), so aggregating over iterations washes
//     out the per-iteration signal.
//   * Routing is semantically clustered — requests from the same cluster at the same rotation
//     phase produce nearly identical maps, which is what makes fMoE's semantic and trajectory
//     searches effective; per-request noise and cross-cluster blending bound that accuracy,
//     which is what makes similarity scores informative (Fig. 8).
//
// Everything is a pure function of (profile seed, request routing, iteration, layer), computed
// via stateless hashing, so the simulator is deterministic and random-access: policies may ask
// for any iteration/layer in any order.
#ifndef FMOE_SRC_MOE_GATE_SIMULATOR_H_
#define FMOE_SRC_MOE_GATE_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/moe/model_config.h"

namespace fmoe {

// Per-request routing context, assigned by the workload generator.
struct RequestRouting {
  int cluster = 0;           // Semantic cluster index in [0, num_clusters).
  int blend_cluster = 0;     // Secondary cluster the request partially follows.
  double blend_weight = 0.0; // In [0, 0.5]; 0 = pure cluster member.
  double noise_multiplier = 1.0;  // Per-request routing noisiness (heterogeneous prompts).
  uint64_t seed = 0;         // Deterministic per-request noise stream.
};

struct GateProfile {
  int num_clusters = 24;
  double primary_logit = 4.0;
  double secondary_logit = 2.6;
  double tertiary_logit = 1.4;
  double base_logit_jitter = 0.35;  // Static per-(cluster,layer,expert) texture.
  double noise_scale = 0.45;        // Dynamic per-(request,iteration,layer,expert) noise.
  double temperature = 1.0;
  // Iterations between rotations of the affinity profile. Consecutive tokens route mostly to
  // the same experts (like real decoders); over a long generation the profile cycles through
  // all experts, producing the balanced request-level aggregate of Fig. 3.
  int phase_period = 8;
  // Logit-noise scale for speculative prediction at distance 1 (used to model the
  // Mixtral-Offloading / ProMoE baselines); corruption grows as sigma * sqrt(distance).
  double speculative_sigma = 1.45;
  int prefill_token_samples = 16;   // Representative tokens simulated in the prefill iteration.
};

class GateSimulator {
 public:
  GateSimulator(const ModelConfig& config, const GateProfile& profile, uint64_t seed);

  const ModelConfig& config() const { return config_; }
  const GateProfile& profile() const { return profile_; }

  // Gate output P_l^(i) for a decode iteration (i >= 1) or the prefill aggregate (i == 0).
  // Always a valid probability distribution over J experts.
  std::vector<double> Distribution(const RequestRouting& routing, int iteration,
                                   int layer) const;

  // Distribution into a reused buffer: `out` is overwritten (and only grows capacity once
  // warm). Decode iterations allocate nothing; the prefill aggregate allocates its per-token
  // buffers on every call — the engine uses PrefillInto instead.
  void DistributionInto(const RequestRouting& routing, int iteration, int layer,
                        std::vector<double>* out) const;

  // Experts the gate actually activates. Decode iterations activate top-K of Distribution();
  // the prefill iteration activates the union of top-K over sampled prompt tokens, so it
  // touches more experts (prompt_tokens matters only when iteration == 0).
  std::vector<int> ActivatedExperts(const RequestRouting& routing, int iteration, int layer,
                                    int prompt_tokens) const;

  // Per-token buffers PrefillInto reuses across calls.
  struct PrefillScratch {
    std::vector<double> token;
    std::vector<size_t> top;
  };

  // Both prefill (iteration 0) outputs of `layer` from one pass over the sampled prompt
  // tokens, each token's distribution computed once: `mean` (if non-null) receives
  // Distribution(routing, 0, layer) and `activated` (if non-null)
  // ActivatedExperts(routing, 0, layer, prompt_tokens), both bitwise. DistributionInto and
  // ActivatedExperts delegate here at iteration 0.
  void PrefillInto(const RequestRouting& routing, int layer, int prompt_tokens,
                   std::vector<double>* mean, std::vector<int>* activated,
                   PrefillScratch* scratch) const;

  // Noisy estimate of Distribution(routing, iteration, layer) as seen by a speculative
  // predictor looking `distance` layers ahead. Fidelity decays with distance.
  std::vector<double> SpeculativeDistribution(const RequestRouting& routing, int iteration,
                                              int layer, int distance) const;

  // Rotation phase of iteration i (the per-layer profile shift); exposed for tests.
  int RotationOffset(int iteration, int layer) const;

 private:
  // Logits before softmax for a single token draw; `token_salt` != 0 differentiates prefill
  // token samples.
  std::vector<double> Logits(const RequestRouting& routing, int iteration, int layer,
                             uint64_t token_salt) const;
  void LogitsInto(const RequestRouting& routing, int iteration, int layer, uint64_t token_salt,
                  std::vector<double>* out) const;
  std::vector<double> TokenDistribution(const RequestRouting& routing, int iteration, int layer,
                                        uint64_t token_salt) const;

  const double& BaseLogit(int cluster, int layer, int expert) const;

  ModelConfig config_;
  GateProfile profile_;
  uint64_t seed_;
  // base_logits_[cluster][layer * J + expert]: static affinity texture.
  std::vector<std::vector<double>> base_logits_;
  std::vector<int> layer_strides_;  // Rotation stride per layer, coprime with J.
};

}  // namespace fmoe

#endif  // FMOE_SRC_MOE_GATE_SIMULATOR_H_
