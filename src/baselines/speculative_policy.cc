#include "src/baselines/speculative_policy.h"

#include <algorithm>
#include <cmath>

#include "src/util/math.h"

namespace fmoe {

SpeculativeOptions MixtralOffloadingOptions() {
  SpeculativeOptions options;
  options.label = "Mixtral-Offloading";
  options.distance = 1;
  options.synchronous = true;
  options.prefetch_at_start = false;  // Needs hidden states; cannot speculate before layer 0.
  options.decision_overhead_sec = 1.0e-4;  // Running the next layer's gate on current states.
  return options;
}

SpeculativeOptions ProMoeOptions(int prefetch_distance) {
  SpeculativeOptions options;
  options.label = "ProMoE";
  options.distance = prefetch_distance;
  options.synchronous = false;  // Proactive, decoupled from the critical path.
  options.prefetch_at_start = true;
  options.decision_overhead_sec = 0.0;
  options.async_cost_sec = 2.0e-5;  // Per-layer predictor inference, off the critical path.
  options.predictor_skill = 0.55;  // Trained predictors hold accuracy across the stride.
  return options;
}

SpeculativePolicy::SpeculativePolicy(const ModelConfig& model,
                                     const SpeculativeOptions& options)
    : model_(model), options_(options) {}

void SpeculativePolicy::FetchPrediction(EngineHandle& engine, const IterationContext& context,
                                        int target_layer, int distance) {
  const int effective_distance = std::max(
      1, static_cast<int>(std::lround(options_.predictor_skill * distance)));
  const std::vector<double> predicted =
      engine.SpeculativeGate(context.request->routing, context.iteration, target_layer,
                             effective_distance);
  const std::vector<size_t> top = TopKIndices(predicted, static_cast<size_t>(model_.top_k));
  if (options_.synchronous) {
    for (size_t idx : top) {
      // Start every transfer first so they overlap across device links.
      engine.PrefetchAsync(ExpertId{target_layer, static_cast<int>(idx)}, predicted[idx],
                           predicted[idx] / static_cast<double>(std::max(distance, 1)));
    }
    // Synchronous speculation (Mixtral-Offloading): the forward pass blocks until every
    // speculative load has landed.
    for (size_t idx : top) {
      engine.BlockingLoad(ExpertId{target_layer, static_cast<int>(idx)}, predicted[idx]);
    }
    return;
  }
  // Asynchronous speculation (ProMoE): the prediction is computed now but its prefetches are
  // a published message — by value, since the request may complete before a slow worker gets
  // to the job. One topic per (slot, target): a fresher prediction supersedes a pending one.
  const uint64_t topic = 1 +
                         static_cast<uint64_t>(context.batch_slot) *
                             static_cast<uint64_t>(model_.num_layers + 1) +
                         static_cast<uint64_t>(target_layer);
  const double priority_scale = 1.0 / static_cast<double>(std::max(distance, 1));
  engine.PublishDeferred(
      OverheadCategory::kMapMatching, PublishMode::kAsync, options_.async_cost_sec, topic,
      [target_layer, top, predicted, priority_scale](EngineHandle& handle) {
        for (size_t idx : top) {
          handle.PrefetchAsync(ExpertId{target_layer, static_cast<int>(idx)}, predicted[idx],
                               predicted[idx] * priority_scale);
        }
      });
}

void SpeculativePolicy::OnIterationStart(EngineHandle& engine,
                                         const IterationContext& context) {
  if (!options_.prefetch_at_start) {
    return;
  }
  // Before layer 0 the predictor only has the input embedding; uncertainty grows with depth.
  for (int target = 0; target < std::min(options_.distance, model_.num_layers); ++target) {
    FetchPrediction(engine, context, target, target + 1);
  }
}

void SpeculativePolicy::OnGateOutput(EngineHandle& engine, const IterationContext& context,
                                     int layer, const std::vector<double>& /*probs*/,
                                     const std::vector<int>& /*activated*/) {
  const int target = layer + options_.distance;
  if (options_.synchronous) {
    // Blocking publish: the per-layer gate re-run is on the critical path, and the loads
    // apply inline regardless of the matcher latency scale.
    engine.PublishDeferred(OverheadCategory::kMapMatching, PublishMode::kBlocking,
                           options_.decision_overhead_sec, /*topic=*/0,
                           [this, &context, target](EngineHandle& handle) {
                             if (target < model_.num_layers) {
                               FetchPrediction(handle, context, target, options_.distance);
                             }
                           });
    return;
  }
  if (target < model_.num_layers) {
    FetchPrediction(engine, context, target, options_.distance);
  }
}

}  // namespace fmoe
