// Registry of the five serving systems compared in the paper's evaluation (§6.1) plus the
// ablation variants of §6.5. Every system is an OffloadPolicy implementation paired with its
// cache eviction algorithm; the experiment runners build engines from these specs so all
// comparisons share one mechanism.
#ifndef FMOE_SRC_HARNESS_SYSTEMS_H_
#define FMOE_SRC_HARNESS_SYSTEMS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/map_store.h"
#include "src/moe/model_config.h"
#include "src/serving/policy.h"

namespace fmoe {

struct SystemSpec {
  std::string name;
  std::string cache_policy;  // Eviction algorithm (see eviction_policy.h).
  std::unique_ptr<OffloadPolicy> policy;
  bool preload_all = false;  // No-offload reference configuration.
};

// Builds a system by name. Supported:
//   "fMoE"                — full system (Map T+S+δ search, PriorityLFU cache).
//   "MoE-Infinity"        — request-level EAM, LFU cache, synchronous decisions.
//   "ProMoE"              — async stride-speculative prefetching, LFU cache.
//   "Mixtral-Offloading"  — synchronous distance-1 speculation, LRU cache.
//   "DeepSpeed-Inference" — pure on-demand, LRU cache.
//   "No-offload"          — all experts resident (reference point in Fig. 1b).
// Ablation variants (Fig. 12):
//   "Map(T)"              — trajectory-only search.
//   "Map(T+S)"            — + semantic search, fixed top-(K+1) selection.
//   "Map(T+S+d)"          — + dynamic δ threshold (== full fMoE prefetching).
//   "Speculate"           — speculative tracking at the engine prefetch distance.
//   "HitCount"            — request-level hit-count tracking (EAM machinery).
//   "fMoE-LRU" / "fMoE-LFU" — full fMoE search with baseline caches (Fig. 12b).
//   "fMoE-FIFOStore"      — full fMoE with FIFO store replacement instead of RDY dedup.
// `fmoe_store_capacity` sizes the Expert Map Store of fMoE-family systems (1K is the paper's
// operating point; experiments shrink it for speed or sweep it for sensitivity).
// `low_precision_threshold` enables the Hobbit-style mixed-precision extension for
// fMoE-family systems (0, the default, is the paper's lossless behaviour).
// `map_precision` selects the Expert Map Store's column storage precision (DESIGN.md §5g);
// it applies to every fMoE-family system and is a no-op for the baselines, which keep no map
// store (EAM tracks hit counts, speculative/on-demand keep no history at all).
// `host_stage_candidates` enables tier-aware prefetch for fMoE-family systems on multi-tier
// engines: the top N scored-but-not-selected map candidates per matched layer are staged
// NVMe→host speculatively. No-op (bit-identical) on two-tier engines and for baselines.
// `map_shards` splits the Expert Map Store into semantic-cluster shards (DESIGN.md §5i);
// 1 (the default) is byte-identical to the unsharded store and is a no-op for baselines.
SystemSpec MakeSystem(const std::string& name, const ModelConfig& model, int prefetch_distance,
                      size_t fmoe_store_capacity = 1000,
                      double low_precision_threshold = 0.0,
                      MapPrecision map_precision = MapPrecision::kFp32,
                      int host_stage_candidates = 0,
                      int map_shards = 1);

// Whether MakeSystem knows `name` (front ends check a user's name before building).
bool IsSystemName(const std::string& name);

// The five systems of Figs. 9-11, worst-to-best order used in the paper's plots.
std::vector<std::string> PaperSystemNames();

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_SYSTEMS_H_
