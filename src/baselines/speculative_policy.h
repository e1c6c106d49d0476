// Speculative-prefetching baselines.
//
// Two systems in the paper's comparison speculate on future gate decisions instead of using
// history:
//   * Mixtral-Offloading (§6.1 baseline 3): layer-wise speculation at distance 1, executed
//     SYNCHRONOUSLY — the forward pass blocks on the speculative loads, which is why it wins
//     hit rate (distance-1 predictions are accurate) but loses TTFT/TPOT.
//   * ProMoE (§6.1 baseline 2): stride-based speculative prefetching with trained predictors,
//     modelled as ASYNCHRONOUS speculation at the engine's prefetch distance.
// Both are configurations of this policy.
#ifndef FMOE_SRC_BASELINES_SPECULATIVE_POLICY_H_
#define FMOE_SRC_BASELINES_SPECULATIVE_POLICY_H_

#include <string>
#include <vector>

#include "src/serving/policy.h"

namespace fmoe {

struct SpeculativeOptions {
  std::string label = "Speculative";
  int distance = 1;              // Lookahead in layers.
  bool synchronous = false;      // Block the forward pass on speculative loads.
  bool prefetch_at_start = true; // Cover layers [0, distance) from the iteration start.
  double decision_overhead_sec = 0.0;  // Per-layer prediction cost; charged when synchronous.
  // Modeled cost of one asynchronous prediction job (predictor inference + issue) when
  // !synchronous: published to the background worker, so at nonzero matcher_latency_scale the
  // speculative prefetches land late, like a real decoupled predictor.
  double async_cost_sec = 0.0;
  // Predictor quality: the lookahead distance is scaled by this before corruption is applied
  // (< 1 models ProMoE's trained per-layer predictors, which degrade slower with stride than
  // naive gate reuse).
  double predictor_skill = 1.0;
};

SpeculativeOptions MixtralOffloadingOptions();
SpeculativeOptions ProMoeOptions(int prefetch_distance);

class SpeculativePolicy : public OffloadPolicy {
 public:
  SpeculativePolicy(const ModelConfig& model, const SpeculativeOptions& options);

  std::string name() const override { return options_.label; }

  void OnIterationStart(EngineHandle& engine, const IterationContext& context) override;
  void OnGateOutput(EngineHandle& engine, const IterationContext& context, int layer,
                    const std::vector<double>& probs,
                    const std::vector<int>& activated) override;

 private:
  // Synchronous path: predicts and loads inline (Mixtral-Offloading). Asynchronous path:
  // computes the prediction now, captures the prefetch list by value, and publishes it as a
  // deferred job (ProMoE's decoupled predictor).
  void FetchPrediction(EngineHandle& engine, const IterationContext& context, int target_layer,
                       int distance);

  ModelConfig model_;
  SpeculativeOptions options_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_BASELINES_SPECULATIVE_POLICY_H_
