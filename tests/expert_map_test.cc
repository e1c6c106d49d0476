#include "src/core/expert_map.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(ExpertMapTest, ConstructionZeroInitialises) {
  ExpertMap map(3, 4);
  EXPECT_EQ(map.num_layers(), 3);
  EXPECT_EQ(map.experts_per_layer(), 4);
  EXPECT_FALSE(map.empty());
  for (int l = 0; l < 3; ++l) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(map.Probability(l, j), 0.0);
    }
  }
}

TEST(ExpertMapTest, DefaultConstructedIsEmpty) {
  ExpertMap map;
  EXPECT_TRUE(map.empty());
}

TEST(ExpertMapTest, SetAndReadLayer) {
  ExpertMap map(2, 3);
  map.SetLayer(1, std::vector<double>{0.5, 0.3, 0.2});
  EXPECT_DOUBLE_EQ(map.Probability(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(map.Probability(1, 2), 0.2);
  const auto layer = map.Layer(1);
  EXPECT_DOUBLE_EQ(layer[1], 0.3);
  // Layer 0 untouched.
  EXPECT_DOUBLE_EQ(map.Probability(0, 0), 0.0);
}

TEST(ExpertMapTest, FromLayerProbsCopiesEverything) {
  const std::vector<std::vector<double>> probs{{0.9, 0.1}, {0.4, 0.6}, {0.5, 0.5}};
  const ExpertMap map = ExpertMap::FromLayerProbs(probs);
  EXPECT_EQ(map.num_layers(), 3);
  EXPECT_EQ(map.experts_per_layer(), 2);
  EXPECT_DOUBLE_EQ(map.Probability(0, 0), 0.9);
  EXPECT_DOUBLE_EQ(map.Probability(2, 1), 0.5);
}

TEST(ExpertMapTest, PrefixIsContiguousRowMajor) {
  ExpertMap map(3, 2);
  map.SetLayer(0, std::vector<double>{1.0, 2.0});
  map.SetLayer(1, std::vector<double>{3.0, 4.0});
  map.SetLayer(2, std::vector<double>{5.0, 6.0});
  const auto prefix = map.Prefix(2);
  ASSERT_EQ(prefix.size(), 4u);
  EXPECT_DOUBLE_EQ(prefix[0], 1.0);
  EXPECT_DOUBLE_EQ(prefix[3], 4.0);
  EXPECT_EQ(map.Prefix(0).size(), 0u);
  EXPECT_EQ(map.Prefix(3).size(), map.Flat().size());
}

TEST(ExpertMapTest, TopKCountsMarkTopExpertsPerLayer) {
  ExpertMap map(2, 4);
  map.SetLayer(0, std::vector<double>{0.1, 0.6, 0.2, 0.1});
  map.SetLayer(1, std::vector<double>{0.4, 0.1, 0.1, 0.4});
  const auto counts = map.TopKCounts(2);
  ASSERT_EQ(counts.size(), 8u);
  // Layer 0: experts 1 and 2.
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[0], 0u);
  // Layer 1: experts 0 and 3.
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(counts[7], 1u);
}

TEST(ExpertMapTest, MixtralShapedMapHasExpectedSize) {
  const ModelConfig cfg = MixtralConfig();
  ExpertMap map(cfg.num_layers, cfg.experts_per_layer);
  EXPECT_EQ(map.Flat().size(), 256u);
}

}  // namespace
}  // namespace fmoe
