// Expert map: the paper's core data structure (§4.1).
//
// An expert map records, for one inference iteration, the gate probability distribution over
// all J experts at every one of the L MoE layers: map_i = {P_1, ..., P_L}. Layers are stored
// row-major in one contiguous buffer so a trajectory prefix (the first l layers) is a
// contiguous span — exactly the vector the trajectory cosine search (Eq. 5) operates on.
#ifndef FMOE_SRC_CORE_EXPERT_MAP_H_
#define FMOE_SRC_CORE_EXPERT_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/moe/model_config.h"

namespace fmoe {

class ExpertMap {
 public:
  ExpertMap() = default;
  ExpertMap(int num_layers, int experts_per_layer);

  // Builds a map from per-layer probability rows (each of length J).
  static ExpertMap FromLayerProbs(const std::vector<std::vector<double>>& layer_probs);

  int num_layers() const { return num_layers_; }
  int experts_per_layer() const { return experts_per_layer_; }
  bool empty() const { return data_.empty(); }

  // Probability distribution of one layer.
  std::span<const double> Layer(int layer) const;
  void SetLayer(int layer, std::span<const double> probs);
  double Probability(int layer, int expert) const;

  // Flattened first `layers` layers (the trajectory prefix).
  std::span<const double> Prefix(int layers) const;
  // The entire flattened map.
  std::span<const double> Flat() const { return data_; }

  // Coarse-grained view: per-expert activation counts aggregated over top-K selections —
  // this recovers exactly what request-level trackers like MoE-Infinity's EAM store, which is
  // how the paper argues expert maps generalise existing methods (§4.1).
  std::vector<uint64_t> TopKCounts(int top_k) const;

 private:
  int num_layers_ = 0;
  int experts_per_layer_ = 0;
  std::vector<double> data_;  // Row-major [layer][expert].
};

}  // namespace fmoe

#endif  // FMOE_SRC_CORE_EXPERT_MAP_H_
