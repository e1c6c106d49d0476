#include "src/harness/systems.h"

#include <utility>

#include "src/baselines/eam_policy.h"
#include "src/baselines/on_demand_policy.h"
#include "src/baselines/speculative_policy.h"
#include "src/core/fmoe_policy.h"
#include "src/util/logging.h"

namespace fmoe {
namespace {

// MakeSystem's arguments past the name.
struct SystemArgs {
  const ModelConfig& model;
  int distance;
  size_t store_capacity;
  double low_precision_threshold;
  MapPrecision map_precision;
  int host_stage_candidates;
  int map_shards;
};

SystemSpec FmoeVariant(const std::string& name, const SystemArgs& args, bool semantic,
                       bool dynamic_threshold, const std::string& cache,
                       StoreDedupPolicy dedup = StoreDedupPolicy::kRedundancy) {
  FmoeOptions options;
  options.variant_name = name;
  options.store_capacity = args.store_capacity;
  options.store_dedup = dedup;
  options.map_precision = args.map_precision;
  options.low_precision_threshold = args.low_precision_threshold;
  options.host_stage_candidates = args.host_stage_candidates;
  options.map_shards = args.map_shards;
  options.matcher.use_semantic = semantic;
  options.matcher.use_trajectory = true;
  options.prefetcher.dynamic_threshold = dynamic_threshold;
  // Without the delta mechanism the ablation prefetches exactly the top-K of the matched map
  // (what the baselines do); delta adds hedging with extra experts under low match confidence.
  options.prefetcher.min_extra_experts = dynamic_threshold ? 1 : 0;
  SystemSpec spec;
  spec.name = name;
  spec.cache_policy = cache;
  spec.policy = std::make_unique<FmoePolicy>(args.model, args.distance, options);
  return spec;
}

SystemSpec Baseline(const std::string& name, const std::string& cache,
                    std::unique_ptr<OffloadPolicy> policy, bool preload_all = false) {
  SystemSpec spec;
  spec.name = name;
  spec.cache_policy = cache;
  spec.policy = std::move(policy);
  spec.preload_all = preload_all;
  return spec;
}

struct RegisteredSystem {
  const char* name;
  SystemSpec (*build)(const std::string& name, const SystemArgs& args);
};

// The registry: every name MakeSystem accepts, with how to build it.
const RegisteredSystem kSystems[] = {
    {"fMoE",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, /*semantic=*/true, /*dynamic_threshold=*/true,
                          "fMoE-PriorityLFU");
     }},
    {"Map(T)",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, /*semantic=*/false, /*dynamic_threshold=*/false,
                          "fMoE-PriorityLFU");
     }},
    {"Map(T+S)",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, /*semantic=*/true, /*dynamic_threshold=*/false,
                          "fMoE-PriorityLFU");
     }},
    {"Map(T+S+d)",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, /*semantic=*/true, /*dynamic_threshold=*/true,
                          "fMoE-PriorityLFU");
     }},
    {"fMoE-FIFOStore",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, true, true, "fMoE-PriorityLFU", StoreDedupPolicy::kFifo);
     }},
    {"fMoE-LRU",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, true, true, "LRU");
     }},
    {"fMoE-LFU",
     [](const std::string& name, const SystemArgs& args) {
       return FmoeVariant(name, args, true, true, "LFU");
     }},
    {"MoE-Infinity",
     [](const std::string& name, const SystemArgs& args) {
       return Baseline(name, "LFU",
                       std::make_unique<EamPolicy>(args.model, args.distance, EamOptions{}));
     }},
    {"HitCount",
     [](const std::string& name, const SystemArgs& args) {
       EamOptions options;
       options.label = "HitCount";
       options.decision_overhead_sec = 0.0;  // Tracking ablation: isolate prediction quality.
       return Baseline(name, "fMoE-PriorityLFU",
                       std::make_unique<EamPolicy>(args.model, args.distance, options));
     }},
    {"ProMoE",
     [](const std::string& name, const SystemArgs& args) {
       return Baseline(name, "LFU",
                       std::make_unique<SpeculativePolicy>(args.model,
                                                           ProMoeOptions(args.distance)));
     }},
    {"Speculate",
     [](const std::string& name, const SystemArgs& args) {
       SpeculativeOptions options = ProMoeOptions(args.distance);
       options.label = "Speculate";
       return Baseline(name, "fMoE-PriorityLFU",
                       std::make_unique<SpeculativePolicy>(args.model, options));
     }},
    {"Mixtral-Offloading",
     [](const std::string& name, const SystemArgs& args) {
       return Baseline(name, "LRU",
                       std::make_unique<SpeculativePolicy>(args.model,
                                                           MixtralOffloadingOptions()));
     }},
    {"DeepSpeed-Inference",
     [](const std::string& name, const SystemArgs&) {
       return Baseline(name, "LRU", std::make_unique<OnDemandPolicy>());
     }},
    {"No-offload",
     [](const std::string& name, const SystemArgs&) {
       return Baseline(name, "LFU", std::make_unique<OnDemandPolicy>(), /*preload_all=*/true);
     }},
};

const RegisteredSystem* FindSystem(const std::string& name) {
  for (const RegisteredSystem& system : kSystems) {
    if (name == system.name) {
      return &system;
    }
  }
  return nullptr;
}

}  // namespace

bool IsSystemName(const std::string& name) { return FindSystem(name) != nullptr; }

SystemSpec MakeSystem(const std::string& name, const ModelConfig& model, int prefetch_distance,
                      size_t fmoe_store_capacity, double low_precision_threshold,
                      MapPrecision map_precision, int host_stage_candidates, int map_shards) {
  const RegisteredSystem* system = FindSystem(name);
  FMOE_CHECK_MSG(system != nullptr, "unknown system: " << name);
  return system->build(name, {model, prefetch_distance, fmoe_store_capacity,
                              low_precision_threshold, map_precision, host_stage_candidates,
                              map_shards});
}

std::vector<std::string> PaperSystemNames() {
  return {"DeepSpeed-Inference", "Mixtral-Offloading", "ProMoE", "MoE-Infinity", "fMoE"};
}

}  // namespace fmoe
