#include "src/moe/embedding.h"

#include <gtest/gtest.h>

#include "src/util/math.h"

namespace fmoe {
namespace {

SemanticEmbedder MakeEmbedder(int clusters = 8, uint64_t seed = 1) {
  return SemanticEmbedder(TinyTestConfig(), clusters, EmbedderProfile{}, seed);
}

RequestRouting Routing(int cluster, uint64_t seed) {
  RequestRouting routing;
  routing.cluster = cluster;
  routing.blend_cluster = cluster;
  routing.seed = seed;
  return routing;
}

TEST(SemanticEmbedderTest, PromptEmbeddingHasUnitNorm) {
  const SemanticEmbedder embedder = MakeEmbedder();
  const std::vector<double> e = embedder.PromptEmbedding(Routing(0, 42));
  EXPECT_EQ(e.size(), static_cast<size_t>(TinyTestConfig().embedding_dim));
  EXPECT_NEAR(Norm(e), 1.0, 1e-9);
}

TEST(SemanticEmbedderTest, Deterministic) {
  const SemanticEmbedder embedder = MakeEmbedder();
  EXPECT_EQ(embedder.PromptEmbedding(Routing(1, 7)), embedder.PromptEmbedding(Routing(1, 7)));
  EXPECT_EQ(embedder.IterationEmbedding(Routing(1, 7), 3),
            embedder.IterationEmbedding(Routing(1, 7), 3));
}

// The engine draws the prompt embedding once per request and rebuilds each iteration's
// embedding into one reused buffer; that must equal drawing it afresh every iteration.
TEST(SemanticEmbedderTest, CachedPromptPathMatchesIterationEmbedding) {
  const SemanticEmbedder embedder = MakeEmbedder();
  RequestRouting routing = Routing(3, 99);
  routing.blend_cluster = 6;
  routing.blend_weight = 0.3;
  const std::vector<double> prompt = embedder.PromptEmbedding(routing);
  std::vector<double> cached;
  for (int i = 0; i <= 200; ++i) {
    embedder.IterationEmbeddingInto(prompt, i, &cached);
    ASSERT_EQ(cached, embedder.IterationEmbedding(routing, i)) << "iteration " << i;
  }
}

TEST(SemanticEmbedderTest, SameClusterMoreSimilarThanCrossCluster) {
  const SemanticEmbedder embedder = MakeEmbedder();
  const auto a = embedder.PromptEmbedding(Routing(2, 10));
  const auto b = embedder.PromptEmbedding(Routing(2, 20));
  const auto c = embedder.PromptEmbedding(Routing(5, 10));
  EXPECT_GT(CosineSimilarity(a, b), CosineSimilarity(a, c) + 0.2);
}

TEST(SemanticEmbedderTest, IterationEmbeddingHasPhaseDimensions) {
  const SemanticEmbedder embedder = MakeEmbedder();
  const auto e = embedder.IterationEmbedding(Routing(0, 1), 0);
  EXPECT_EQ(static_cast<int>(e.size()), embedder.iteration_embedding_dim());
  EXPECT_GT(embedder.iteration_embedding_dim(), TinyTestConfig().embedding_dim);
}

TEST(SemanticEmbedderTest, SamePhaseIterationsEmbedAlike) {
  const SemanticEmbedder embedder = MakeEmbedder();
  const RequestRouting routing = Routing(1, 5);
  EmbedderProfile profile;
  const int full_period = TinyTestConfig().experts_per_layer * profile.phase_period;
  const auto a = embedder.IterationEmbedding(routing, 1);
  const auto same_phase = embedder.IterationEmbedding(routing, 1 + full_period);
  EXPECT_NEAR(CosineSimilarity(a, same_phase), 1.0, 1e-9);
}

TEST(SemanticEmbedderTest, DistantPhasesEmbedLessAlikeThanSamePhase) {
  const SemanticEmbedder embedder = MakeEmbedder();
  const RequestRouting routing = Routing(1, 5);
  EmbedderProfile profile;
  const int half_period = TinyTestConfig().experts_per_layer * profile.phase_period / 2;
  const auto a = embedder.IterationEmbedding(routing, 0);
  const auto near = embedder.IterationEmbedding(routing, 1);
  const auto far = embedder.IterationEmbedding(routing, half_period);
  EXPECT_GT(CosineSimilarity(a, near), CosineSimilarity(a, far));
}

TEST(SemanticEmbedderTest, BlendedPromptSitsBetweenClusters) {
  const SemanticEmbedder embedder = MakeEmbedder();
  RequestRouting blended = Routing(0, 9);
  blended.blend_cluster = 3;
  blended.blend_weight = 0.5;
  const auto e_blend = embedder.PromptEmbedding(blended);
  const auto e0 = embedder.PromptEmbedding(Routing(0, 123));
  const auto e3 = embedder.PromptEmbedding(Routing(3, 456));
  // The blend is meaningfully similar to both parent clusters.
  EXPECT_GT(CosineSimilarity(e_blend, e0), 0.25);
  EXPECT_GT(CosineSimilarity(e_blend, e3), 0.25);
}

TEST(SemanticEmbedderTest, DifferentEmbedderSeedsChangeCentroids) {
  const SemanticEmbedder a = MakeEmbedder(8, 1);
  const SemanticEmbedder b = MakeEmbedder(8, 2);
  EXPECT_NE(a.PromptEmbedding(Routing(0, 5)), b.PromptEmbedding(Routing(0, 5)));
}

}  // namespace
}  // namespace fmoe
