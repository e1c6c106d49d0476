// Equivalence and determinism tests for the Expert Map Store search engine: the SoA semantic
// search, the one-shot trajectory search, and the incremental TrajectorySearchSession must all
// return the same (index, score) as a reference brute-force double-precision scan over the
// materialized records, across randomized stores, dimension-mismatched records, zero-norm
// prefixes, and boundary store sizes.
#include "src/core/map_store.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/math.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

constexpr double kTol = 1e-6;

ModelConfig Tiny() { return TinyTestConfig(); }

StoredIteration RandomRecord(const ModelConfig& model, Rng& rng, int embedding_dim) {
  StoredIteration record;
  record.map = ExpertMap(model.num_layers, model.experts_per_layer);
  std::vector<double> row(static_cast<size_t>(model.experts_per_layer));
  for (int l = 0; l < model.num_layers; ++l) {
    for (double& v : row) {
      v = rng.NextDouble();
    }
    NormalizeInPlace(row);
    record.map.SetLayer(l, row);
  }
  record.embedding.resize(static_cast<size_t>(embedding_dim));
  for (double& v : record.embedding) {
    v = rng.NextGaussian();
  }
  return record;
}

// Reference scans: the seed's brute-force double-precision algorithm over Get()-materialized
// records, strict-> argmax (lowest index wins ties).
SearchResult ReferenceSemantic(const ExpertMapStore& store, std::span<const double> query) {
  SearchResult result;
  for (size_t i = 0; i < store.size(); ++i) {
    if (store.Get(i).embedding.size() != query.size()) {
      continue;
    }
    const double score = CosineSimilarity(query, store.Get(i).embedding);
    if (!result.found || score > result.score) {
      result.found = true;
      result.index = i;
      result.score = score;
    }
  }
  return result;
}

SearchResult ReferenceTrajectory(const ExpertMapStore& store, std::span<const double> prefix,
                                 int prefix_layers) {
  SearchResult result;
  for (size_t i = 0; i < store.size(); ++i) {
    const double score = CosineSimilarity(prefix, store.Get(i).map.Prefix(prefix_layers));
    if (!result.found || score > result.score) {
      result.found = true;
      result.index = i;
      result.score = score;
    }
  }
  return result;
}

void ExpectSameMatch(const SearchResult& actual, const SearchResult& reference) {
  ASSERT_EQ(actual.found, reference.found);
  if (reference.found) {
    EXPECT_EQ(actual.index, reference.index);
    EXPECT_NEAR(actual.score, reference.score, kTol);
  }
}

TEST(MapStoreSearchEquivalenceTest, SemanticMatchesReferenceAcrossStoreSizes) {
  const ModelConfig cfg = Tiny();
  const int dim = 8;
  Rng rng(101);
  for (const size_t size : {size_t{0}, size_t{1}, size_t{32}}) {
    ExpertMapStore store(cfg, /*capacity=*/32, /*prefetch_distance=*/1);
    for (size_t i = 0; i < size; ++i) {
      store.Insert(RandomRecord(cfg, rng, dim));
    }
    ASSERT_EQ(store.size(), size);
    for (int q = 0; q < 8; ++q) {
      std::vector<double> query(dim);
      for (double& v : query) {
        v = rng.NextGaussian();
      }
      ExpectSameMatch(store.SemanticSearch(query), ReferenceSemantic(store, query));
    }
  }
}

TEST(MapStoreSearchEquivalenceTest, SemanticSkipsAndDoesNotChargeMismatchedDims) {
  const ModelConfig cfg = Tiny();
  Rng rng(202);
  ExpertMapStore store(cfg, 16, 1);
  for (int i = 0; i < 12; ++i) {
    store.Insert(RandomRecord(cfg, rng, i % 3 == 0 ? 5 : 8));  // 4 odd-dimension records.
  }
  std::vector<double> query(8);
  for (double& v : query) {
    v = rng.NextGaussian();
  }
  const SearchResult result = store.SemanticSearch(query);
  ExpectSameMatch(result, ReferenceSemantic(store, query));
  // Flops charge only the 8 compared records, not the 4 skipped ones.
  EXPECT_EQ(result.flops, 8u * 2u * query.size());
}

TEST(MapStoreSearchEquivalenceTest, SemanticZeroNormQueryAndRecordsScoreZero) {
  const ModelConfig cfg = Tiny();
  Rng rng(303);
  ExpertMapStore store(cfg, 8, 1);
  StoredIteration zero = RandomRecord(cfg, rng, 4);
  std::fill(zero.embedding.begin(), zero.embedding.end(), 0.0);
  store.Insert(std::move(zero));
  store.Insert(RandomRecord(cfg, rng, 4));
  const std::vector<double> zero_query(4, 0.0);
  const SearchResult result = store.SemanticSearch(zero_query);
  ExpectSameMatch(result, ReferenceSemantic(store, zero_query));
  EXPECT_EQ(result.score, 0.0);
}

TEST(MapStoreSearchEquivalenceTest, TrajectoryOneShotMatchesReference) {
  const ModelConfig cfg = Tiny();
  Rng rng(404);
  for (const size_t size : {size_t{1}, size_t{7}, size_t{32}}) {
    ExpertMapStore store(cfg, 32, 1);
    for (size_t i = 0; i < size; ++i) {
      store.Insert(RandomRecord(cfg, rng, 8));
    }
    for (int l = 0; l <= cfg.num_layers; ++l) {
      std::vector<double> prefix(static_cast<size_t>(l * cfg.experts_per_layer));
      for (double& v : prefix) {
        v = rng.NextDouble();
      }
      ExpectSameMatch(store.TrajectorySearch(prefix, l), ReferenceTrajectory(store, prefix, l));
    }
  }
}

TEST(MapStoreSearchEquivalenceTest, IncrementalSessionMatchesReferenceEveryLayer) {
  const ModelConfig cfg = Tiny();
  Rng rng(505);
  ExpertMapStore store(cfg, 24, 1);
  for (int i = 0; i < 24; ++i) {
    store.Insert(RandomRecord(cfg, rng, 8));
  }
  for (int trial = 0; trial < 8; ++trial) {
    TrajectorySearchSession session(&store);
    std::vector<double> prefix;
    for (int l = 0; l < cfg.num_layers; ++l) {
      std::vector<double> probs(static_cast<size_t>(cfg.experts_per_layer));
      for (double& v : probs) {
        v = rng.NextDouble();
      }
      prefix.insert(prefix.end(), probs.begin(), probs.end());
      session.ObserveLayer(probs);
      ExpectSameMatch(session.CurrentBest(), ReferenceTrajectory(store, prefix, l + 1));
    }
  }
}

TEST(MapStoreSearchEquivalenceTest, SessionZeroNormPrefixScoresZero) {
  const ModelConfig cfg = Tiny();
  Rng rng(606);
  ExpertMapStore store(cfg, 4, 1);
  store.Insert(RandomRecord(cfg, rng, 4));
  store.Insert(RandomRecord(cfg, rng, 4));
  TrajectorySearchSession session(&store);
  const std::vector<double> zeros(static_cast<size_t>(cfg.experts_per_layer), 0.0);
  session.ObserveLayer(zeros);
  const SearchResult best = session.CurrentBest();
  ExpectSameMatch(best, ReferenceTrajectory(store, zeros, 1));
  EXPECT_TRUE(best.found);
  EXPECT_EQ(best.score, 0.0);
}

TEST(MapStoreSearchEquivalenceTest, SessionRebuildsAfterStoreMutation) {
  const ModelConfig cfg = Tiny();
  Rng rng(707);
  ExpertMapStore store(cfg, 4, 1);  // Small capacity: later inserts replace records.
  store.Insert(RandomRecord(cfg, rng, 8));
  store.Insert(RandomRecord(cfg, rng, 8));

  TrajectorySearchSession session(&store);
  std::vector<double> prefix;
  for (int l = 0; l < cfg.num_layers; ++l) {
    std::vector<double> probs(static_cast<size_t>(cfg.experts_per_layer));
    for (double& v : probs) {
      v = rng.NextDouble();
    }
    prefix.insert(prefix.end(), probs.begin(), probs.end());
    session.ObserveLayer(probs);
    // Mutate the store mid-iteration, as a concurrent batch slot would: grow, then replace.
    store.Insert(RandomRecord(cfg, rng, 8));
    ExpectSameMatch(session.CurrentBest(), ReferenceTrajectory(store, prefix, l + 1));
  }
}

TEST(MapStoreSearchEquivalenceTest, SessionEmptyStoreAndEmptyPrefixFindNothing) {
  const ModelConfig cfg = Tiny();
  ExpertMapStore store(cfg, 4, 1);
  TrajectorySearchSession session(&store);
  EXPECT_FALSE(session.CurrentBest().found);  // Empty store, empty prefix.
  Rng rng(808);
  store.Insert(RandomRecord(cfg, rng, 4));
  EXPECT_FALSE(session.CurrentBest().found);  // Nonempty store but no observed layers.
}

TEST(MapStoreSoaViewTest, ViewsMirrorRecordsAndNorms) {
  const ModelConfig cfg = Tiny();
  Rng rng(111);
  ExpertMapStore store(cfg, 4, 1);
  store.Insert(RandomRecord(cfg, rng, 8));
  ASSERT_EQ(store.map_dim(), cfg.num_layers * cfg.experts_per_layer);
  const std::vector<float> row = store.MapRow(0);
  const std::span<const double> flat = store.Get(0).map.Flat();
  ASSERT_EQ(row.size(), flat.size());
  for (size_t k = 0; k < row.size(); ++k) {
    EXPECT_EQ(row[k], static_cast<float>(flat[k]));
  }
  EXPECT_EQ(store.EmbeddingDim(0), store.Get(0).embedding.size());
  EXPECT_NEAR(store.EmbeddingNorm(0), Norm(store.Get(0).embedding), kTol);
  EXPECT_EQ(store.PrefixNorm(0, 0), 0.0);
  for (int l = 1; l <= cfg.num_layers; ++l) {
    EXPECT_NEAR(store.PrefixNorm(0, l), Norm(store.Get(0).map.Prefix(l)), kTol);
  }
}

class MapStorePrecisionViewTest : public ::testing::TestWithParam<MapPrecision> {};

// Every map row is gathered from the column matrix, so MapRow and ColumnValue must agree at
// every precision — also after an int8 column has been requantized under stored records.
TEST_P(MapStorePrecisionViewTest, MapRowGathersColumnValues) {
  const ModelConfig cfg = Tiny();
  Rng rng(909);
  ExpertMapStore store(cfg, 6, 1, StoreDedupPolicy::kRedundancy, GetParam());
  const auto expect_rows_match = [&] {
    for (size_t i = 0; i < store.size(); ++i) {
      const std::vector<float> row = store.MapRow(i);
      ASSERT_EQ(row.size(), static_cast<size_t>(store.map_dim()));
      for (size_t k = 0; k < row.size(); ++k) {
        EXPECT_EQ(row[k], store.ColumnValue(k, i)) << "record " << i << " column " << k;
      }
    }
  };
  for (int i = 0; i < 4; ++i) {
    store.Insert(RandomRecord(cfg, rng, 8));
  }
  expect_rows_match();
  // Column 0 takes a value far past every range seen so far: an int8 store requantizes it
  // under the four stored records.
  StoredIteration outlier = RandomRecord(cfg, rng, 8);
  std::vector<double> layer0(outlier.map.Layer(0).begin(), outlier.map.Layer(0).end());
  layer0[0] = 5.0;
  outlier.map.SetLayer(0, layer0);
  const float scale_before =
      GetParam() == MapPrecision::kInt8 ? store.col_scales_data()[0] : 0.0f;
  store.Insert(std::move(outlier));
  if (GetParam() == MapPrecision::kInt8) {
    ASSERT_NE(store.col_scales_data()[0], scale_before);
  }
  expect_rows_match();
  for (int i = 0; i < 6; ++i) {  // Past capacity: dedup replacements.
    store.Insert(RandomRecord(cfg, rng, 8));
  }
  expect_rows_match();
}

// PrefixNorm is the norm of exactly what the scans see: the dequantized column values.
TEST_P(MapStorePrecisionViewTest, PrefixNormMatchesBruteForceOverScannedValues) {
  const ModelConfig cfg = Tiny();
  Rng rng(919);
  ExpertMapStore store(cfg, 8, 1, StoreDedupPolicy::kRedundancy, GetParam());
  for (int i = 0; i < 12; ++i) {
    store.Insert(RandomRecord(cfg, rng, 8));
  }
  const size_t J = static_cast<size_t>(cfg.experts_per_layer);
  for (size_t i = 0; i < store.size(); ++i) {
    const std::vector<float> row = store.MapRow(i);
    const std::vector<double> values(row.begin(), row.end());
    EXPECT_EQ(store.PrefixNorm(i, 0), 0.0);
    for (int l = 1; l <= cfg.num_layers; ++l) {
      const std::span<const double> prefix(values.data(), static_cast<size_t>(l) * J);
      EXPECT_NEAR(store.PrefixNorm(i, l), Norm(prefix), kTol) << "record " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, MapStorePrecisionViewTest,
                         ::testing::Values(MapPrecision::kFp32, MapPrecision::kFp16,
                                           MapPrecision::kInt8),
                         [](const ::testing::TestParamInfo<MapPrecision>& info) {
                           return std::string(MapPrecisionName(info.param));
                         });

TEST(MapStoreSoaViewTest, GenerationBumpsOnEveryMutation) {
  const ModelConfig cfg = Tiny();
  Rng rng(222);
  ExpertMapStore store(cfg, 2, 1);
  const uint64_t g0 = store.generation();
  store.Insert(RandomRecord(cfg, rng, 4));
  EXPECT_GT(store.generation(), g0);
  store.Insert(RandomRecord(cfg, rng, 4));
  const uint64_t g2 = store.generation();
  store.Insert(RandomRecord(cfg, rng, 4));  // Dedup replacement also mutates.
  EXPECT_GT(store.generation(), g2);
  const uint64_t g3 = store.generation();
  store.Clear();
  EXPECT_GT(store.generation(), g3);
}

}  // namespace
}  // namespace fmoe
