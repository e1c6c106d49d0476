#include "src/moe/embedding.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/util/logging.h"
#include "src/util/math.h"
#include "src/util/rng.h"

namespace fmoe {

SemanticEmbedder::SemanticEmbedder(const ModelConfig& config, int num_clusters,
                                   const EmbedderProfile& profile, uint64_t seed)
    : config_(config), profile_(profile), seed_(seed) {
  FMOE_CHECK(num_clusters > 0);
  FMOE_CHECK(config.embedding_dim > 0);
  Rng rng(seed);
  centroids_.resize(static_cast<size_t>(num_clusters));
  for (auto& centroid : centroids_) {
    centroid.resize(static_cast<size_t>(config_.embedding_dim));
    for (double& v : centroid) {
      v = rng.NextGaussian();
    }
    const double norm = Norm(centroid);
    for (double& v : centroid) {
      v /= norm;
    }
  }
}

std::vector<double> SemanticEmbedder::PromptEmbedding(const RequestRouting& routing) const {
  const auto& c0 = centroids_[static_cast<size_t>(routing.cluster) % centroids_.size()];
  const auto& c1 = centroids_[static_cast<size_t>(routing.blend_cluster) % centroids_.size()];
  const double w = Clip(routing.blend_weight, 0.0, 0.9);

  std::vector<double> embedding(static_cast<size_t>(config_.embedding_dim));
  Rng rng(routing.seed ^ seed_ ^ 0x5eedfeed5eedfeedULL);
  // Noise is scaled so its expected *norm* (not per-dimension amplitude) is request_noise,
  // keeping within-cluster similarity independent of the embedding dimension.
  const double noise_scale =
      profile_.request_noise / std::sqrt(static_cast<double>(config_.embedding_dim));
  for (size_t i = 0; i < embedding.size(); ++i) {
    embedding[i] = (1.0 - w) * c0[i] + w * c1[i] + noise_scale * rng.NextGaussian();
  }
  const double norm = Norm(embedding);
  if (norm > 0.0) {
    for (double& v : embedding) {
      v /= norm;
    }
  }
  return embedding;
}

std::vector<double> SemanticEmbedder::IterationEmbedding(const RequestRouting& routing,
                                                         int iteration) const {
  std::vector<double> embedding;
  IterationEmbeddingInto(PromptEmbedding(routing), iteration, &embedding);
  return embedding;
}

void SemanticEmbedder::IterationEmbeddingInto(std::span<const double> prompt, int iteration,
                                              std::vector<double>* out) const {
  std::vector<double>& embedding = *out;
  embedding.reserve(static_cast<size_t>(iteration_embedding_dim()));
  embedding.assign(prompt.begin(), prompt.end());
  // Positional component: harmonics of the iteration index relative to the expert count, the
  // period of the gate's rotation (see GateSimulator).
  const int64_t period = int64_t{config_.experts_per_layer} * std::max(profile_.phase_period, 1);
  const double scale =
      profile_.phase_weight / std::sqrt(static_cast<double>(2 * profile_.phase_harmonics));
  for (int k = 1; k <= profile_.phase_harmonics; ++k) {
    // Harmonic k sits q/period of a turn in, with q = iteration·k mod period. The sine is the
    // cosine a quarter turn earlier, (4q + 3·period) mod 4·period quarter-steps: integer
    // arithmetic, so each turn fraction is rounded once.
    const int64_t q = (int64_t{iteration} * k) % period;
    const double quarter_steps = static_cast<double>(4 * period);
    embedding.push_back(
        scale * CosTwoPi(static_cast<double>((4 * q + 3 * period) % (4 * period)) / quarter_steps));
    embedding.push_back(scale * CosTwoPi(static_cast<double>(q) / static_cast<double>(period)));
  }
}

}  // namespace fmoe
