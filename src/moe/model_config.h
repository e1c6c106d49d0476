// MoE model descriptions.
//
// The reproduction never touches real weights: an offloading system only needs the *shape* of
// the model — layer count L, experts per layer J, top-K, per-expert weight size, and the
// compute/memory characteristics feeding the cost model. Presets mirror Table 1 of the paper.
#ifndef FMOE_SRC_MOE_MODEL_CONFIG_H_
#define FMOE_SRC_MOE_MODEL_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fmoe {

// Identifies one expert: layer l in [0, L), expert j in [0, J).
struct ExpertId {
  int layer = 0;
  int expert = 0;

  bool operator==(const ExpertId&) const = default;
  bool operator<(const ExpertId& other) const {
    if (layer != other.layer) {
      return layer < other.layer;
    }
    return expert < other.expert;
  }
};

struct ModelConfig {
  std::string name;
  int num_layers = 0;        // L: number of MoE layers.
  int experts_per_layer = 0; // J.
  int top_k = 0;             // K: experts activated per token per layer.
  int embedding_dim = 64;    // h: simulator semantic-embedding dimension.

  uint64_t expert_bytes = 0;          // Per-expert weight size (fp16).
  uint64_t attention_bytes_per_layer = 0;  // Non-expert (dense) weights per layer.

  double total_params_b = 0.0;   // Billions, for reporting (Table 1).
  double active_params_b = 0.0;  // Billions, for reporting (Table 1).

  int total_experts() const { return num_layers * experts_per_layer; }

  // Flat layer-major index of an expert; used as cache/map key and placement hash.
  uint64_t FlatIndex(ExpertId id) const {
    return static_cast<uint64_t>(id.layer) * static_cast<uint64_t>(experts_per_layer) +
           static_cast<uint64_t>(id.expert);
  }

  // Bytes of all experts of the model.
  uint64_t total_expert_bytes() const {
    return static_cast<uint64_t>(total_experts()) * expert_bytes;
  }
};

// Table 1 presets.
ModelConfig MixtralConfig();   // Mixtral-8x7B: 12.9B/46.7B params, 2/8 experts, 32 layers.
ModelConfig QwenMoeConfig();   // Qwen1.5-MoE: 2.7B/14.3B params, 4/60 experts, 24 layers.
ModelConfig PhiMoeConfig();    // Phi-3.5-MoE: 6.6B/42B params, 2/16 experts, 32 layers.

// All three, in the order the paper reports them.
std::vector<ModelConfig> AllPaperModels();

// Scaled-down variant for fast unit tests (4 layers, 6 experts, top-2).
ModelConfig TinyTestConfig();

}  // namespace fmoe

#endif  // FMOE_SRC_MOE_MODEL_CONFIG_H_
