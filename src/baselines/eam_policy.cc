#include "src/baselines/eam_policy.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/math.h"

namespace fmoe {

EamPolicy::EamPolicy(const ModelConfig& model, int prefetch_distance, const EamOptions& options)
    : model_(model),
      prefetch_distance_(prefetch_distance),
      options_(options),
      global_counts_(static_cast<size_t>(model.num_layers) *
                         static_cast<size_t>(model.experts_per_layer),
                     0.0) {}

std::vector<double>& EamPolicy::SlotCounts(int slot) {
  FMOE_CHECK(slot >= 0);
  while (request_counts_.size() <= static_cast<size_t>(slot)) {
    request_counts_.emplace_back(global_counts_.size(), 0.0);
  }
  return request_counts_[static_cast<size_t>(slot)];
}

double EamPolicy::GlobalCount(int layer, int expert) const {
  return global_counts_[static_cast<size_t>(layer) *
                            static_cast<size_t>(model_.experts_per_layer) +
                        static_cast<size_t>(expert)];
}

std::vector<double> EamPolicy::Predict(int slot, int layer) const {
  const size_t J = static_cast<size_t>(model_.experts_per_layer);
  const size_t base = static_cast<size_t>(layer) * J;
  std::vector<double> likelihood(J, 0.0);
  for (size_t j = 0; j < J; ++j) {
    double count = global_counts_[base + j];
    if (static_cast<size_t>(slot) < request_counts_.size()) {
      count += options_.request_blend_weight * request_counts_[static_cast<size_t>(slot)][base + j];
    }
    likelihood[j] = count;
  }
  NormalizeInPlace(likelihood);
  return likelihood;
}

void EamPolicy::PrefetchForLayer(EngineHandle& engine, int slot, int target_layer,
                                 int current_layer) {
  const std::vector<double> predicted = Predict(slot, target_layer);
  const double distance = static_cast<double>(target_layer - current_layer);
  for (size_t idx : TopKIndices(predicted, static_cast<size_t>(model_.top_k))) {
    const ExpertId id{target_layer, static_cast<int>(idx)};
    engine.PrefetchAsync(id, predicted[idx], predicted[idx] / distance);
  }
}

void EamPolicy::OnRequestAdmitted(EngineHandle& /*engine*/, const IterationContext& context) {
  std::vector<double>& counts = SlotCounts(context.batch_slot);
  std::fill(counts.begin(), counts.end(), 0.0);
}

void EamPolicy::OnIterationStart(EngineHandle& engine, const IterationContext& context) {
  if (!options_.prefetch_at_start) {
    return;
  }
  // Coarse-grained rule for the unseen initial layers: most-popular experts overall (§4.2
  // describes MoE-Infinity doing exactly this).
  for (int target = 0; target < std::min(prefetch_distance_, model_.num_layers); ++target) {
    PrefetchForLayer(engine, context.batch_slot, target, /*current_layer=*/-1);
  }
}

void EamPolicy::OnGateOutput(EngineHandle& engine, const IterationContext& context, int layer,
                             const std::vector<double>& /*probs*/,
                             const std::vector<int>& activated) {
  // Request-level tracking: record activations (counts only — no probabilities).
  std::vector<double>& counts = SlotCounts(context.batch_slot);
  const size_t base =
      static_cast<size_t>(layer) * static_cast<size_t>(model_.experts_per_layer);
  for (int expert : activated) {
    counts[base + static_cast<size_t>(expert)] += 1.0;
  }
  // Blocking publish: MoE-Infinity predicts and decides on the critical path (§4.3), so the
  // decision cost extends the iteration and the commands apply inline at every latency scale.
  engine.PublishDeferred(
      OverheadCategory::kMapMatching, PublishMode::kBlocking, options_.decision_overhead_sec,
      /*topic=*/0, [this, slot = context.batch_slot, layer](EngineHandle& handle) {
        const int target = layer + prefetch_distance_;
        if (target < model_.num_layers) {
          PrefetchForLayer(handle, slot, target, layer);
        }
      });
}

void EamPolicy::OnRequestCompleted(EngineHandle& /*engine*/, const IterationContext& context) {
  // Fold the request-level matrix into history — the coarse aggregation step.
  if (static_cast<size_t>(context.batch_slot) >= request_counts_.size()) {
    return;
  }
  const std::vector<double>& counts = request_counts_[static_cast<size_t>(context.batch_slot)];
  for (size_t i = 0; i < global_counts_.size(); ++i) {
    global_counts_[i] += counts[i];
  }
}

void EamPolicy::Reset() {
  std::fill(global_counts_.begin(), global_counts_.end(), 0.0);
  request_counts_.clear();
}

}  // namespace fmoe
