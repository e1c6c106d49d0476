// Semantic-embedding simulator.
//
// fMoE extracts "semantic hints" from the model's embedding layer (§4.2). We model that layer's
// output as: a unit centroid per semantic cluster, blended for mixed-topic requests, plus
// per-request Gaussian spread — so same-cluster prompts have high cosine similarity and
// different clusters are nearly orthogonal. The *iteration* embedding additionally carries a
// low-dimensional positional encoding of the decoding step (a real embedding-layer output drifts
// as generated tokens accumulate), which is what lets semantic search distinguish iterations at
// different routing phases.
#ifndef FMOE_SRC_MOE_EMBEDDING_H_
#define FMOE_SRC_MOE_EMBEDDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/moe/gate_simulator.h"
#include "src/moe/model_config.h"

namespace fmoe {

struct EmbedderProfile {
  double request_noise = 0.25;  // Per-request spread around the cluster centroid.
  int phase_harmonics = 4;      // sin/cos pairs encoding the iteration phase.
  double phase_weight = 0.8;    // Amplitude of the positional component.
  // Must match GateProfile::phase_period (the engine keeps them in sync): the positional
  // encoding advances once per routing phase, so same-phase iterations embed alike.
  int phase_period = 8;
};

class SemanticEmbedder {
 public:
  SemanticEmbedder(const ModelConfig& config, int num_clusters, const EmbedderProfile& profile,
                   uint64_t seed);

  // Embedding of the request prompt (dimension = config.embedding_dim).
  std::vector<double> PromptEmbedding(const RequestRouting& routing) const;

  // Embedding recorded for one inference iteration: prompt embedding plus phase encoding
  // (dimension = config.embedding_dim + 2 * phase_harmonics).
  std::vector<double> IterationEmbedding(const RequestRouting& routing, int iteration) const;
  // IterationEmbedding from a prompt embedding drawn once per request: `out` becomes `prompt`
  // followed by the phase encoding of `iteration`, reusing its capacity.
  void IterationEmbeddingInto(std::span<const double> prompt, int iteration,
                              std::vector<double>* out) const;

  int iteration_embedding_dim() const {
    return config_.embedding_dim + 2 * profile_.phase_harmonics;
  }

 private:
  ModelConfig config_;
  EmbedderProfile profile_;
  uint64_t seed_;
  std::vector<std::vector<double>> centroids_;  // [cluster][embedding_dim], unit norm.
};

}  // namespace fmoe

#endif  // FMOE_SRC_MOE_EMBEDDING_H_
