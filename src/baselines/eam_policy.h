// MoE-Infinity baseline: request-level Expert Activation Matrix (EAM).
//
// The EAM aggregates expert activation *counts* per (layer, expert) at request granularity —
// exactly the coarse-grained tracking the paper critiques (§2.4). Prediction for a future layer
// normalises the historical counts, blended with the current request's own activations so far.
// Prediction and prefetch-decision run synchronously with the forward pass (§4.3: "MoE-Infinity
// cannot compute forward functions before finishing expert prediction and prefetching at every
// MoE layer"), modelled as per-layer synchronous overhead.
//
// This class doubles as the "Hit count" tracking ablation of Fig. 12a.
#ifndef FMOE_SRC_BASELINES_EAM_POLICY_H_
#define FMOE_SRC_BASELINES_EAM_POLICY_H_

#include <string>
#include <vector>

#include "src/serving/policy.h"

namespace fmoe {

struct EamOptions {
  std::string label = "MoE-Infinity";
  double request_blend_weight = 1.5;   // Weight of the current request's own counts.
  double decision_overhead_sec = 2.0e-4;  // Synchronous per-layer prediction + decision cost.
  bool prefetch_at_start = true;       // Most-popular experts for layers [0, d).
};

class EamPolicy : public OffloadPolicy {
 public:
  EamPolicy(const ModelConfig& model, int prefetch_distance, const EamOptions& options);

  std::string name() const override { return options_.label; }

  void OnRequestAdmitted(EngineHandle& engine, const IterationContext& context) override;
  void OnIterationStart(EngineHandle& engine, const IterationContext& context) override;
  void OnGateOutput(EngineHandle& engine, const IterationContext& context, int layer,
                    const std::vector<double>& probs,
                    const std::vector<int>& activated) override;
  void OnRequestCompleted(EngineHandle& engine, const IterationContext& context) override;
  void Reset() override;

  // Historical activation count for one expert (for tests).
  double GlobalCount(int layer, int expert) const;

 private:
  // Normalised activation likelihoods for `layer`, blending history and this request.
  std::vector<double> Predict(int slot, int layer) const;
  void PrefetchForLayer(EngineHandle& engine, int slot, int target_layer, int current_layer);
  std::vector<double>& SlotCounts(int slot);

  ModelConfig model_;
  int prefetch_distance_;
  EamOptions options_;
  std::vector<double> global_counts_;               // [layer * J + expert].
  std::vector<std::vector<double>> request_counts_; // Per batch slot, same shape.
};

}  // namespace fmoe

#endif  // FMOE_SRC_BASELINES_EAM_POLICY_H_
