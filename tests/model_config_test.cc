#include "src/moe/model_config.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(ModelConfigTest, MixtralMatchesTable1) {
  const ModelConfig cfg = MixtralConfig();
  EXPECT_EQ(cfg.num_layers, 32);
  EXPECT_EQ(cfg.experts_per_layer, 8);
  EXPECT_EQ(cfg.top_k, 2);
  EXPECT_EQ(cfg.total_experts(), 256);
  EXPECT_NEAR(cfg.total_params_b, 46.7, 1e-9);
  EXPECT_NEAR(cfg.active_params_b, 12.9, 1e-9);
}

TEST(ModelConfigTest, QwenMatchesTable1) {
  const ModelConfig cfg = QwenMoeConfig();
  EXPECT_EQ(cfg.num_layers, 24);
  EXPECT_EQ(cfg.experts_per_layer, 60);
  EXPECT_EQ(cfg.top_k, 4);
  EXPECT_EQ(cfg.total_experts(), 1440);
}

TEST(ModelConfigTest, PhiMatchesTable1) {
  const ModelConfig cfg = PhiMoeConfig();
  EXPECT_EQ(cfg.num_layers, 32);
  EXPECT_EQ(cfg.experts_per_layer, 16);
  EXPECT_EQ(cfg.top_k, 2);
  EXPECT_EQ(cfg.total_experts(), 512);
}

TEST(ModelConfigTest, FlatIndexIsLayerMajorAndDense) {
  const ModelConfig cfg = TinyTestConfig();
  uint64_t expected = 0;
  for (int l = 0; l < cfg.num_layers; ++l) {
    for (int j = 0; j < cfg.experts_per_layer; ++j) {
      EXPECT_EQ(cfg.FlatIndex(ExpertId{l, j}), expected++);
    }
  }
}

TEST(ModelConfigTest, TotalExpertBytesScalesWithExpertCount) {
  const ModelConfig cfg = TinyTestConfig();
  EXPECT_EQ(cfg.total_expert_bytes(),
            static_cast<uint64_t>(cfg.total_experts()) * cfg.expert_bytes);
}

TEST(ModelConfigTest, AllPaperModelsReturnsThreeDistinct) {
  const auto models = AllPaperModels();
  ASSERT_EQ(models.size(), 3u);
  EXPECT_NE(models[0].name, models[1].name);
  EXPECT_NE(models[1].name, models[2].name);
}

TEST(ModelConfigTest, ExpertIdOrderingIsLayerThenExpert) {
  EXPECT_LT((ExpertId{0, 5}), (ExpertId{1, 0}));
  EXPECT_LT((ExpertId{1, 0}), (ExpertId{1, 1}));
  EXPECT_EQ((ExpertId{2, 3}), (ExpertId{2, 3}));
}

TEST(ModelConfigTest, QwenExpertsAreSmallMixtralLarge) {
  // Qwen1.5-MoE has far more, far smaller experts than Mixtral — the property that drives its
  // different offloading behaviour in the paper.
  EXPECT_LT(QwenMoeConfig().expert_bytes, MixtralConfig().expert_bytes / 10);
}

}  // namespace
}  // namespace fmoe
