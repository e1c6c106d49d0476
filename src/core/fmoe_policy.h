// The full fMoE offloading policy (§3.2 workflow, steps 1–5).
//
// Per iteration: collect context (iteration embedding + observed trajectory), hybrid-match
// expert maps from the store, prefetch experts selected by the dynamic δ threshold in
// PRI^prefetch order, stamp matched probabilities on cached experts for priority eviction, and
// insert the completed iteration's map back into the store (with RDY dedup at capacity).
// Matching, prefetch issue, and store updates are asynchronous: each hook computes its
// decision immediately (matcher state advances in virtual-zero time) and *publishes* it with
// its modeled search cost via EngineHandle::PublishDeferred — the engine's background matcher
// worker delivers the command at the modeled completion instant (§4.3 pub-sub). Only the
// lightweight context collection runs synchronously, matching Fig. 15's overhead accounting.
//
// The ablation variants of Fig. 12a are configuration points here: Map(T) disables semantic
// search, Map(T+S) disables the dynamic threshold, Map(T+S+δ) is the default.
#ifndef FMOE_SRC_CORE_FMOE_POLICY_H_
#define FMOE_SRC_CORE_FMOE_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/map_matcher.h"
#include "src/core/map_store.h"
#include "src/core/prefetcher.h"
#include "src/core/sharded_store.h"
#include "src/serving/policy.h"

namespace fmoe {

struct FmoeOptions {
  size_t store_capacity = 1000;  // 1K maps, the paper's operating point (§6.6).
  StoreDedupPolicy store_dedup = StoreDedupPolicy::kRedundancy;
  // Storage precision of the store's trajectory search matrix (DESIGN.md §5g): fp16/int8
  // shrink the Fig. 16 store footprint 2×/4× at tolerance-bounded (not bitwise) accuracy.
  MapPrecision map_precision = MapPrecision::kFp32;
  MatcherOptions matcher;
  PrefetcherOptions prefetcher;
  // Models the async matcher's speed (store searches run on spare CPU/GPU cycles).
  double search_throughput_flops = 50.0e9;
  // Synchronous context-collection cost per MoE layer per iteration (gathering L gate
  // distributions + the iteration embedding; Fig. 15 keeps the total in the low ms).
  double context_collection_sec_per_layer = 1.0e-5;
  // Mixed-precision extension (Hobbit-style): prefetch candidates whose matched probability
  // is below this threshold at reduced precision (half the bytes). 0 disables the feature
  // (the paper's lossless default).
  double low_precision_threshold = 0.0;
  double low_precision_fraction = 0.5;
  // Tier-aware prefetch (multi-tier engines only): the top N scored-but-not-selected map
  // candidates per matched layer are speculatively staged NVMe→host, so a later match (or a
  // demand miss) pays only the host→GPU hop. 0 disables; two-tier engines no-op regardless.
  int host_stage_candidates = 0;
  // Semantic-cluster shards of the map store (DESIGN.md §5i): the capacity splits across
  // shards keyed by a consistent hash of the record embedding, each with its own generation,
  // so an insert into one cluster no longer invalidates sessions scanning the others. 1
  // (default) replays the monolithic store bitwise.
  int map_shards = 1;
  std::string variant_name = "fMoE";
};

class FmoePolicy : public OffloadPolicy {
 public:
  FmoePolicy(const ModelConfig& model, int prefetch_distance, const FmoeOptions& options);

  std::string name() const override { return options_.variant_name; }

  void OnIterationStart(EngineHandle& engine, const IterationContext& context) override;
  void OnGateOutput(EngineHandle& engine, const IterationContext& context, int layer,
                    const std::vector<double>& probs,
                    const std::vector<int>& activated) override;
  void OnIterationEnd(EngineHandle& engine, const IterationContext& context,
                      const std::vector<std::vector<double>>& layer_probs) override;
  void Reset() override;

  const ShardedMapStore& store() const { return store_; }
  ShardedMapStore& mutable_store() { return store_; }

  // Mean similarity scores observed since construction/Reset (Fig. 14a).
  double MeanSemanticScore() const;
  double MeanTrajectoryScore() const;

  // Optional per-iteration score log (zipped with the engine's iteration records to compute
  // the similarity <-> hit-rate correlation of Fig. 8). Only meaningful with batch size 1.
  struct IterationScoreSample {
    double semantic = 0.0;
    double trajectory = 0.0;
    bool semantic_valid = false;
    bool trajectory_valid = false;
  };
  void EnableScoreLog() { log_scores_ = true; }
  const std::vector<IterationScoreSample>& score_log() const { return score_log_; }

 private:
  // A prefetch decision computed at publish time: the layer distribution to stamp on resident
  // experts plus the selected candidates in PRI^prefetch order. This is the pub-sub message
  // body — values, not a recipe — so applying it later uses the matcher state as observed,
  // not as it has since evolved.
  struct PrefetchCommand {
    bool valid = false;
    int target_layer = 0;
    std::vector<double> stamp_probs;
    std::vector<PrefetchCandidate> candidates;
  };

  HybridMatcher& MatcherForSlot(int slot);
  PrefetchCommand BuildCommand(const HybridMatcher& matcher, int target_layer,
                               int current_layer) const;
  static void ApplyCommand(EngineHandle& engine, const PrefetchCommand& command,
                           double low_precision_threshold, double low_precision_fraction,
                           int host_stage_candidates);
  // Publishes `cost_seconds` of matcher work carrying `commands` on `topic` (kAsync).
  void PublishMatchWork(EngineHandle& engine, double cost_seconds, uint64_t topic,
                        std::vector<PrefetchCommand> commands);

  // Pub-sub topics: one per (batch slot, target layer) so a newer gate observation for the
  // same target supersedes a still-pending older decision, plus one per slot for the
  // iteration-start (semantic window) job.
  uint64_t GateTopic(int slot, int target_layer) const {
    return 1 + static_cast<uint64_t>(slot) * static_cast<uint64_t>(model_.num_layers + 1) +
           static_cast<uint64_t>(target_layer);
  }
  uint64_t StartTopic(int slot) const { return GateTopic(slot, model_.num_layers); }

  ModelConfig model_;
  int prefetch_distance_;
  FmoeOptions options_;
  ShardedMapStore store_;
  std::vector<std::unique_ptr<HybridMatcher>> matchers_;  // One per batch slot.
  // Per-shard trace tracks ("store/shardK"), registered lazily on the first traced insert.
  // Only sharded stores (map_shards > 1) register tracks, so default-run traces are unchanged.
  std::vector<int> shard_tracks_;

  double semantic_score_sum_ = 0.0;
  uint64_t semantic_score_count_ = 0;
  double trajectory_score_sum_ = 0.0;
  uint64_t trajectory_score_count_ = 0;
  bool log_scores_ = false;
  std::vector<IterationScoreSample> score_log_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CORE_FMOE_POLICY_H_
