#include "src/core/map_store_io.h"

#include <sstream>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

ModelConfig Tiny() { return TinyTestConfig(); }

StoredIteration MakeRecord(uint64_t id, int iteration) {
  const ModelConfig cfg = Tiny();
  StoredIteration record;
  record.request_id = id;
  record.iteration = iteration;
  record.map = ExpertMap(cfg.num_layers, cfg.experts_per_layer);
  for (int layer = 0; layer < cfg.num_layers; ++layer) {
    std::vector<double> row(static_cast<size_t>(cfg.experts_per_layer));
    for (int j = 0; j < cfg.experts_per_layer; ++j) {
      row[static_cast<size_t>(j)] =
          static_cast<double>((id * 31 + static_cast<uint64_t>(layer * 7 + j)) % 100) / 100.0;
    }
    record.map.SetLayer(layer, row);
  }
  record.embedding = {static_cast<double>(id), 0.5, -1.0};
  return record;
}

TEST(MapStoreIoTest, RoundTripPreservesRecords) {
  ExpertMapStore original(Tiny(), 8, 2);
  for (uint64_t id = 0; id < 5; ++id) {
    original.Insert(MakeRecord(id, static_cast<int>(id) + 1));
  }
  std::stringstream stream;
  const StoreIoResult saved = SaveStore(original, stream);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.records, 5u);
  EXPECT_GT(saved.bytes, 0u);

  ExpertMapStore loaded(Tiny(), 8, 2);
  const StoreIoResult read = LoadStore(stream, &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.records, 5u);
  ASSERT_EQ(loaded.size(), 5u);
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.Get(i).request_id, original.Get(i).request_id);
    EXPECT_EQ(loaded.Get(i).iteration, original.Get(i).iteration);
    // Values survive the double -> float -> double round trip within float precision.
    for (int layer = 0; layer < Tiny().num_layers; ++layer) {
      for (int j = 0; j < Tiny().experts_per_layer; ++j) {
        EXPECT_NEAR(loaded.Get(i).map.Probability(layer, j),
                    original.Get(i).map.Probability(layer, j), 1e-6);
      }
    }
    ASSERT_EQ(loaded.Get(i).embedding.size(), original.Get(i).embedding.size());
    EXPECT_NEAR(loaded.Get(i).embedding[0], original.Get(i).embedding[0], 1e-6);
  }
}

TEST(MapStoreIoTest, EmptyStoreRoundTrips) {
  ExpertMapStore original(Tiny(), 4, 1);
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);
  ExpertMapStore loaded(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(stream, &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(MapStoreIoTest, RejectsGarbageInput) {
  std::stringstream stream("this is not a store file at all........");
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(stream, &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("bad magic"), std::string::npos);
  EXPECT_EQ(store.size(), 0u);
}

TEST(MapStoreIoTest, RejectsModelShapeMismatch) {
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(1, 1));
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);

  ModelConfig other = Tiny();
  other.experts_per_layer += 2;
  ExpertMapStore wrong(other, 4, 1);
  const StoreIoResult read = LoadStore(stream, &wrong);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("model shape mismatch"), std::string::npos);
  EXPECT_EQ(wrong.size(), 0u);
}

TEST(MapStoreIoTest, TruncatedFileLeavesStoreUntouched) {
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(1, 1));
  original.Insert(MakeRecord(2, 2));
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 10);  // Chop the tail of the last record.

  std::stringstream truncated(bytes);
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(truncated, &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("truncated"), std::string::npos);
  EXPECT_EQ(store.size(), 0u);  // Staging prevented partial loads.

  // A sharded load stages every blob before it inserts any record, so a file cut in its last
  // blob leaves the destination as empty as a cut legacy file does.
  for (const int shards : {1, 3}) {
    ShardedMapStore sharded(Tiny(), 64, 1, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                            shards, kSemanticRouterSeed);
    for (uint64_t id = 0; id < 20; ++id) {
      sharded.Insert(MakeRecord(id, 1));
    }
    std::stringstream sharded_stream;
    ASSERT_TRUE(SaveStore(sharded, sharded_stream).ok);
    std::string sharded_bytes = sharded_stream.str();
    sharded_bytes.resize(sharded_bytes.size() - 10);

    std::stringstream cut(sharded_bytes);
    ShardedMapStore dest(Tiny(), 64, 1, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                         shards, kSemanticRouterSeed);
    const StoreIoResult sharded_read = LoadStore(cut, &dest);
    EXPECT_FALSE(sharded_read.ok) << shards << " shards";
    EXPECT_NE(sharded_read.error.find("truncated"), std::string::npos) << sharded_read.error;
    EXPECT_EQ(dest.size(), 0u) << shards << " shards";
  }
}

TEST(MapStoreIoTest, LoadIntoSmallerStoreGoesThroughReplacement) {
  ExpertMapStore original(Tiny(), 8, 2);
  for (uint64_t id = 0; id < 6; ++id) {
    original.Insert(MakeRecord(id, 1));
  }
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);

  ExpertMapStore small(Tiny(), 3, 2);
  const StoreIoResult read = LoadStore(stream, &small);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.records, 6u);
  EXPECT_EQ(small.size(), 3u);  // Capacity respected via normal replacement.
}

TEST(MapStoreIoTest, FileHelpersRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fmoe_store_io_test.bin";
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(7, 3));
  ASSERT_TRUE(SaveStoreToFile(original, path).ok);
  ExpertMapStore loaded(Tiny(), 4, 1);
  const StoreIoResult read = LoadStoreFromFile(path, &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.Get(0).request_id, 7u);
}

TEST(MapStoreIoTest, MissingFileFailsCleanly) {
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStoreFromFile("/nonexistent/path/store.bin", &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("cannot open"), std::string::npos);
}

TEST(MapStoreIoTest, InconsistentEmbeddingDimensionsRejectedOnSave) {
  ExpertMapStore store(Tiny(), 4, 1);
  store.Insert(MakeRecord(1, 1));
  StoredIteration odd = MakeRecord(2, 1);
  odd.embedding.push_back(9.0);  // Different dimension.
  store.Insert(std::move(odd));
  std::stringstream stream;
  const StoreIoResult saved = SaveStore(store, stream);
  EXPECT_FALSE(saved.ok);
  EXPECT_NE(saved.error.find("inconsistent embedding"), std::string::npos);
}

}  // namespace
}  // namespace fmoe
