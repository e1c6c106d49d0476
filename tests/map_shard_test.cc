// Sharded Expert Map Store suite (DESIGN.md §5i): the shards == 1 bitwise-identity
// contract, the shard-invariance property (an insert into shard A never invalidates shard
// B's sessions), router determinism, and sharded persistence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/map_matcher.h"
#include "src/core/map_store.h"
#include "src/core/map_store_io.h"
#include "src/core/shard_router.h"
#include "src/core/sharded_store.h"
#include "src/util/math.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

ModelConfig Tiny() { return TinyTestConfig(); }

StoredIteration RandomRecord(const ModelConfig& model, Rng& rng, uint64_t id) {
  StoredIteration record;
  record.request_id = id;
  record.iteration = 1;
  record.map = ExpertMap(model.num_layers, model.experts_per_layer);
  std::vector<double> row(static_cast<size_t>(model.experts_per_layer));
  for (int l = 0; l < model.num_layers; ++l) {
    double sum = 0.0;
    for (double& v : row) {
      v = rng.NextDouble() + 1e-3;
      sum += v;
    }
    for (double& v : row) {
      v /= sum;
    }
    record.map.SetLayer(l, row);
  }
  record.embedding = {rng.NextGaussian(), rng.NextGaussian()};
  return record;
}

std::vector<StoredIteration> RandomRecords(const ModelConfig& model, size_t count,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<StoredIteration> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    records.push_back(RandomRecord(model, rng, i));
  }
  return records;
}

// --- shards == 1 differential: bitwise identical to the bare store, at every precision ---

class SingleShardIdentityTest : public ::testing::TestWithParam<MapPrecision> {};

TEST_P(SingleShardIdentityTest, MatchesBareStoreBitwise) {
  const ModelConfig model = Tiny();
  const MapPrecision precision = GetParam();
  ExpertMapStore bare(model, 12, 2, StoreDedupPolicy::kRedundancy, precision);
  ShardedMapStore sharded(model, 12, 2, StoreDedupPolicy::kRedundancy, precision,
                          /*num_shards=*/1, kSemanticRouterSeed);

  const std::vector<StoredIteration> records = RandomRecords(model, 20, 99);
  for (const StoredIteration& record : records) {
    StoredIteration a = record;
    StoredIteration b = record;
    EXPECT_EQ(bare.Insert(std::move(a)), sharded.Insert(std::move(b)).flops);
    ASSERT_EQ(bare.size(), sharded.size());
    ASSERT_EQ(bare.generation(), sharded.generation(0));
  }

  // Every surviving record identical (RDY dedup made the same replacement choices).
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare.Get(i).request_id, sharded.Get(i).request_id);
    EXPECT_EQ(bare.Get(i).embedding, sharded.Get(0, i).embedding);
  }

  // Searches agree exactly — same index, same shard-0 attribution, bitwise-equal scores.
  Rng qrng(7);
  for (int q = 0; q < 8; ++q) {
    const std::vector<double> query = {qrng.NextGaussian(), qrng.NextGaussian()};
    const SearchResult a = bare.SemanticSearch(query);
    const SearchResult b = sharded.SemanticSearch(query);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(0, b.shard);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.flops, b.flops);
  }

  // Incremental sessions agree layer by layer.
  TrajectorySearchSession bare_session(&bare);
  ShardedTrajectorySession sharded_session(&sharded);
  Rng lrng(11);
  std::vector<double> probs(static_cast<size_t>(model.experts_per_layer));
  for (int l = 0; l < model.num_layers; ++l) {
    for (double& v : probs) {
      v = lrng.NextDouble();
    }
    EXPECT_EQ(bare_session.ObserveLayer(probs), sharded_session.ObserveLayer(probs));
    const SearchResult a = bare_session.CurrentBest();
    const SearchResult b = sharded_session.CurrentBest();
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.flops, b.flops);
  }

  EXPECT_EQ(bare.MemoryBytes(), sharded.MemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, SingleShardIdentityTest,
                         ::testing::Values(MapPrecision::kFp32, MapPrecision::kFp16,
                                           MapPrecision::kInt8));

// --- shard invariance: inserts touch exactly one shard's generation and session state ---

TEST(ShardInvarianceTest, InsertBumpsOnlyRoutedShardGeneration) {
  const ModelConfig model = Tiny();
  const int shards = 4;
  ShardedMapStore store(model, 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                        shards, kSemanticRouterSeed);
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    StoredIteration record = RandomRecord(model, rng, static_cast<uint64_t>(i));
    const int target = store.RouteEmbedding(record.embedding);
    std::vector<uint64_t> before(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      before[static_cast<size_t>(s)] = store.generation(s);
    }
    store.Insert(std::move(record));
    for (int s = 0; s < shards; ++s) {
      if (s == target) {
        EXPECT_GT(store.generation(s), before[static_cast<size_t>(s)]);
      } else {
        EXPECT_EQ(store.generation(s), before[static_cast<size_t>(s)])
            << "insert into shard " << target << " bumped shard " << s;
      }
    }
  }
}

TEST(ShardInvarianceTest, InsertRebuildsOnlyRoutedShardSession) {
  const ModelConfig model = Tiny();
  const int shards = 4;
  ShardedMapStore store(model, 64, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                        shards, kSemanticRouterSeed);
  Rng rng(5);
  for (int i = 0; i < 48; ++i) {
    store.Insert(RandomRecord(model, rng, static_cast<uint64_t>(i)));
  }
  // All shards must be populated for per-shard rebuild costs to be observable.
  for (int s = 0; s < shards; ++s) {
    ASSERT_GT(store.shard(s).size(), 0u) << "shard " << s << " empty; adjust seed";
  }

  ShardedTrajectorySession session(&store);
  std::vector<double> probs(static_cast<size_t>(model.experts_per_layer), 0.0);
  probs[0] = 1.0;
  session.ObserveLayer(probs);  // Initial build over every shard.

  // Find a record routed to a known shard, insert it, and observe the next layer: the flop
  // count must cover only the routed shard's rebuild (records_in_shard * 2 * prefix) plus
  // the incremental extension (all records * 2 * J) — NOT a full-store rebuild.
  StoredIteration extra = RandomRecord(model, rng, 1000);
  const int target = store.RouteEmbedding(extra.embedding);
  const size_t target_size_before = store.shard(target).size();
  store.Insert(std::move(extra));
  const size_t target_size = store.shard(target).size();
  EXPECT_GE(target_size, target_size_before);  // Dedup may replace, never grow others.

  const uint64_t flops = session.ObserveLayer(probs);
  const uint64_t j = static_cast<uint64_t>(model.experts_per_layer);
  // Rebuild of the routed shard: its records re-dot the 1-layer prefix (2 * J each), then
  // every record extends by the new layer (2 * J each) and the rebuilt shard re-extends.
  const uint64_t expected =
      static_cast<uint64_t>(target_size) * 2 * j * 2 + // rebuild prefix + extension
      (store.size() - target_size) * 2 * j;            // other shards: extension only
  EXPECT_EQ(flops, expected);

  // A full-store invalidation would have cost strictly more.
  const uint64_t full_rebuild = store.size() * 2 * j * 2;
  EXPECT_LT(flops, full_rebuild);
}

TEST(ShardInvarianceTest, SearchesVisitShardsInAscendingOrderDeterministically) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  Rng rng(13);
  for (int i = 0; i < 48; ++i) {
    store.Insert(RandomRecord(model, rng, static_cast<uint64_t>(i)));
  }
  Rng qrng(17);
  for (int q = 0; q < 16; ++q) {
    const std::vector<double> query = {qrng.NextGaussian(), qrng.NextGaussian()};
    const SearchResult first = store.SemanticSearch(query);
    const SearchResult second = store.SemanticSearch(query);
    EXPECT_EQ(first.found, second.found);
    EXPECT_EQ(first.shard, second.shard);
    EXPECT_EQ(first.index, second.index);
    EXPECT_EQ(first.score, second.score);
    // The winner really lives where the result says.
    ASSERT_TRUE(first.found);
    EXPECT_LT(first.index, store.shard(first.shard).size());
  }
}

TEST(ShardInvarianceTest, GlobalGetConcatenatesShardMajor) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  Rng rng(19);
  for (int i = 0; i < 40; ++i) {
    store.Insert(RandomRecord(model, rng, static_cast<uint64_t>(i)));
  }
  size_t global = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    for (size_t i = 0; i < store.shard(s).size(); ++i, ++global) {
      EXPECT_EQ(store.Get(global).request_id, store.Get(s, i).request_id);
    }
  }
  EXPECT_EQ(global, store.size());
}

// --- router determinism ---

TEST(SemanticShardRouterTest, DeterministicAndDimensionAgnostic) {
  SemanticShardRouter router(4, kSemanticRouterSeed);
  SemanticShardRouter clone(4, kSemanticRouterSeed);
  Rng rng(23);
  for (int i = 0; i < 64; ++i) {
    const std::vector<double> embedding = {rng.NextGaussian(), rng.NextGaussian(),
                                           rng.NextGaussian()};
    const int a = router.Route(embedding);
    EXPECT_EQ(a, clone.Route(embedding));
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
    EXPECT_EQ(a, router.RouteSignature(router.Signature(embedding)));
  }
}

TEST(SemanticShardRouterTest, SingleTargetAlwaysZero) {
  SemanticShardRouter router(1, kSemanticRouterSeed);
  Rng rng(29);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(0, router.Route(std::vector<double>{rng.NextGaussian(), rng.NextGaussian()}));
  }
}

TEST(SemanticShardRouterTest, NearbyEmbeddingsShareAShard) {
  // LSH property: a tight semantic cluster lands on one shard (that is the whole point of
  // affinity routing). Distant clusters need not differ, but identical directions must agree.
  SemanticShardRouter router(8, kSemanticRouterSeed);
  const std::vector<double> base = {0.8, -0.4, 0.3};
  const int home = router.Route(base);
  for (double eps : {1e-6, 1e-5, 1e-4}) {
    const std::vector<double> nearby = {base[0] + eps, base[1] - eps, base[2] + eps};
    EXPECT_EQ(home, router.Route(nearby));
  }
  // Scaling preserves every sign bit, so the signature (and shard) is scale-invariant.
  const std::vector<double> scaled = {base[0] * 7.5, base[1] * 7.5, base[2] * 7.5};
  EXPECT_EQ(router.Signature(base), router.Signature(scaled));
}

TEST(SemanticShardRouterTest, CoversAllTargets) {
  SemanticShardRouter router(4, kSemanticRouterSeed);
  Rng rng(31);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 512; ++i) {
    std::vector<double> embedding(8);
    for (double& v : embedding) {
      v = rng.NextGaussian();
    }
    ++hits[static_cast<size_t>(router.Route(embedding))];
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(hits[static_cast<size_t>(s)], 0) << "shard " << s << " never routed to";
  }
}

// --- sharded persistence ---

TEST(ShardedStoreIoTest, SingleShardWritesLegacyFormatByteIdentically) {
  const ModelConfig model = Tiny();
  ExpertMapStore bare(model, 8, 2);
  ShardedMapStore sharded(model, 8, 2);
  const std::vector<StoredIteration> records = RandomRecords(model, 10, 41);
  for (const StoredIteration& record : records) {
    StoredIteration a = record;
    StoredIteration b = record;
    bare.Insert(std::move(a));
    sharded.Insert(std::move(b));
  }
  std::ostringstream bare_out;
  std::ostringstream sharded_out;
  ASSERT_TRUE(SaveStore(bare, bare_out).ok);
  ASSERT_TRUE(SaveStore(sharded, sharded_out).ok);
  EXPECT_EQ(bare_out.str(), sharded_out.str());
}

TEST(ShardedStoreIoTest, RoundTripsAcrossShardCounts) {
  const ModelConfig model = Tiny();
  for (const int save_shards : {1, 3}) {
    for (const int load_shards : {1, 2, 4}) {
      ShardedMapStore source(model, 24, 2, StoreDedupPolicy::kRedundancy,
                             MapPrecision::kFp32, save_shards, kSemanticRouterSeed);
      const std::vector<StoredIteration> records = RandomRecords(model, 24, 43);
      for (const StoredIteration& record : records) {
        StoredIteration copy = record;
        source.Insert(std::move(copy));
      }
      std::ostringstream out;
      ASSERT_TRUE(SaveStore(source, out).ok);

      // Capacity headroom: the destination splits capacity per shard, and the router may
      // send more than capacity/S records to one shard. 4x headroom keeps eviction out of
      // the round-trip property under any routing skew.
      ShardedMapStore dest(model, 96, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                           load_shards, kSemanticRouterSeed);
      std::istringstream in(out.str());
      const StoreIoResult io = LoadStore(in, &dest);
      ASSERT_TRUE(io.ok) << io.error << " (save=" << save_shards
                         << " load=" << load_shards << ")";
      EXPECT_EQ(io.records, source.size());
      EXPECT_EQ(dest.size(), source.size());
      // Loaded records re-route through the destination's hash: each lives in the shard its
      // embedding maps to.
      for (int s = 0; s < dest.num_shards(); ++s) {
        for (size_t i = 0; i < dest.shard(s).size(); ++i) {
          EXPECT_EQ(s, dest.RouteEmbedding(dest.Get(s, i).embedding));
        }
      }
    }
  }
}

// Saving writes each record's column payload natively (floats, half bits), so an fp32 or
// fp16 store reloaded into the same configuration saves back to the same bytes. (int8 cannot:
// the loader re-inserts decoded values, and the fresh store grows its own per-column grids.)
std::string PrecisionShardName(
    const ::testing::TestParamInfo<std::tuple<MapPrecision, int>>& info) {
  return std::string(MapPrecisionName(std::get<0>(info.param))) + "_shards" +
         std::to_string(std::get<1>(info.param));
}

class SaveLoadSaveTest : public ::testing::TestWithParam<std::tuple<MapPrecision, int>> {};

TEST_P(SaveLoadSaveTest, ReloadedStoreSavesIdenticalBytes) {
  const ModelConfig model = Tiny();
  const auto [precision, shards] = GetParam();
  const auto make_store = [&] {
    return ShardedMapStore(model, 16, 2, StoreDedupPolicy::kRedundancy, precision, shards,
                           kSemanticRouterSeed);
  };
  ShardedMapStore source = make_store();
  for (const StoredIteration& record : RandomRecords(model, 24, 47)) {  // Past capacity.
    StoredIteration copy = record;
    source.Insert(std::move(copy));
  }
  std::ostringstream first;
  ASSERT_TRUE(SaveStore(source, first).ok);

  ShardedMapStore reloaded = make_store();
  std::istringstream in(first.str());
  const StoreIoResult io = LoadStore(in, &reloaded);
  ASSERT_TRUE(io.ok) << io.error;
  ASSERT_EQ(reloaded.size(), source.size());
  std::ostringstream second;
  ASSERT_TRUE(SaveStore(reloaded, second).ok);
  EXPECT_EQ(first.str(), second.str());
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionsAndShards, SaveLoadSaveTest,
    ::testing::Combine(::testing::Values(MapPrecision::kFp32, MapPrecision::kFp16),
                       ::testing::Values(1, 4)),
    PrecisionShardName);

// Reference payload: each map row re-encoded from its dequantized values (int8 codes recovered
// as round((value - offset) / scale)). The native column payload written by SaveStore must
// equal it byte for byte at every precision, in every shard.
std::string ReencodedMapRow(const ExpertMapStore& store, size_t index) {
  const std::vector<float> row = store.MapRow(index);
  std::string bytes;
  for (size_t k = 0; k < row.size(); ++k) {
    switch (store.map_precision()) {
      case MapPrecision::kFp32:
        bytes.append(reinterpret_cast<const char*>(&row[k]), sizeof(float));
        break;
      case MapPrecision::kFp16: {
        const uint16_t half = Fp16FromFloat(row[k]);
        bytes.append(reinterpret_cast<const char*>(&half), sizeof(half));
        break;
      }
      case MapPrecision::kInt8: {
        const float scale = store.col_scales_data()[k];
        const float offset = store.col_offsets_data()[k];
        bytes.push_back(static_cast<char>(
            scale <= 0.0f ? 0 : static_cast<uint8_t>(std::lround((row[k] - offset) / scale))));
        break;
      }
    }
  }
  return bytes;
}

class SavedPayloadTest : public ::testing::TestWithParam<std::tuple<MapPrecision, int>> {};

TEST_P(SavedPayloadTest, NativePayloadEqualsReencodedRows) {
  const ModelConfig model = Tiny();
  const auto [precision, shards] = GetParam();
  ShardedMapStore store(model, 16, 2, StoreDedupPolicy::kRedundancy, precision, shards,
                        kSemanticRouterSeed);
  for (const StoredIteration& record : RandomRecords(model, 40, 53)) {
    StoredIteration copy = record;
    store.Insert(std::move(copy));
  }
  for (int s = 0; s < store.num_shards(); ++s) {
    const ExpertMapStore& shard = store.shard(s);
    ASSERT_GT(shard.size(), 0u);
    std::ostringstream out;
    ASSERT_TRUE(SaveStore(shard, out).ok);
    const std::string file = out.str();
    // Header (magic, four uint32 fields, uint64 count), then the int8 scale/offset tables.
    const size_t map_dim = static_cast<size_t>(shard.map_dim());
    const size_t value_bytes = precision == MapPrecision::kFp32   ? sizeof(float)
                               : precision == MapPrecision::kFp16 ? sizeof(uint16_t)
                                                                  : sizeof(uint8_t);
    size_t at = 8 + 4 * sizeof(uint32_t) + sizeof(uint64_t);
    if (precision == MapPrecision::kInt8) {
      at += 2 * map_dim * sizeof(float);
    }
    for (size_t i = 0; i < shard.size(); ++i) {
      at += sizeof(uint64_t) + sizeof(int32_t);  // request_id, iteration.
      ASSERT_LE(at + map_dim * value_bytes, file.size());
      EXPECT_EQ(file.substr(at, map_dim * value_bytes), ReencodedMapRow(shard, i))
          << "shard " << s << " record " << i;
      at += map_dim * value_bytes + shard.EmbeddingDim(i) * sizeof(float);
    }
    EXPECT_EQ(at, file.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionsAndShards, SavedPayloadTest,
    ::testing::Combine(::testing::Values(MapPrecision::kFp32, MapPrecision::kFp16,
                                         MapPrecision::kInt8),
                       ::testing::Values(1, 4)),
    PrecisionShardName);

TEST(ShardedStoreIoTest, LegacyFileLoadsIntoMultiShardStore) {
  const ModelConfig model = Tiny();
  ExpertMapStore bare(model, 16, 2);
  const std::vector<StoredIteration> records = RandomRecords(model, 16, 47);
  for (const StoredIteration& record : records) {
    StoredIteration copy = record;
    bare.Insert(std::move(copy));
  }
  std::ostringstream out;
  ASSERT_TRUE(SaveStore(bare, out).ok);

  // 4x headroom: per-shard capacity must absorb whatever skew the router produces.
  ShardedMapStore dest(model, 64, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                       kSemanticRouterSeed);
  std::istringstream in(out.str());
  const StoreIoResult io = LoadStore(in, &dest);
  ASSERT_TRUE(io.ok) << io.error;
  EXPECT_EQ(dest.size(), bare.size());
}

// --- inserts through the matcher's session: identical to plain inserts ---

TEST(ShardedSessionInsertTest, MatchesPlainInsertAcrossShardsWithAndWithoutTrajectory) {
  const ModelConfig model = Tiny();
  for (const bool use_trajectory : {true, false}) {
    ShardedMapStore plain(model, 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                          kSemanticRouterSeed);
    ShardedMapStore fused(model, 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                          kSemanticRouterSeed);
    MatcherOptions options;
    options.use_trajectory = use_trajectory;
    HybridMatcher matcher(&fused, model, 2, options);
    Rng rng(59);
    int reused = 0;
    for (uint64_t i = 0; i < 96; ++i) {
      StoredIteration record = RandomRecord(model, rng, i);
      matcher.BeginIteration(record.embedding);
      for (int l = 0; l < model.num_layers; ++l) {
        matcher.ObserveLayer(l, record.map.Layer(l));
      }
      const int target = fused.RouteEmbedding(record.embedding);
      const std::span<const double> flat = record.map.Flat();
      const std::vector<float> floats(flat.begin(), flat.end());
      reused += matcher.session().shard_session(target).FullMapDots(floats).empty() ? 0 : 1;

      StoredIteration copy = record;
      const ShardInsertResult a = plain.Insert(std::move(copy));
      const ShardInsertResult b = fused.Insert(std::move(record), &matcher.session());
      EXPECT_EQ(a.shard, target);
      EXPECT_EQ(a.shard, b.shard);
      EXPECT_EQ(a.flops, b.flops);
    }
    std::ostringstream plain_out;
    std::ostringstream fused_out;
    ASSERT_TRUE(SaveStore(plain, plain_out).ok);
    ASSERT_TRUE(SaveStore(fused, fused_out).ok);
    EXPECT_EQ(plain_out.str(), fused_out.str()) << "use_trajectory=" << use_trajectory;
    if (use_trajectory) {
      EXPECT_GT(reused, 0);
    } else {
      EXPECT_EQ(reused, 0);  // No layer observed: every insert rescans.
    }
  }
}

// --- capacity split ---

TEST(ShardedStoreTest, CapacitySplitsEvenlyWithRemainderToLowShards) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 10, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  EXPECT_EQ(store.capacity(), 10u);
  EXPECT_EQ(store.shard(0).capacity(), 3u);
  EXPECT_EQ(store.shard(1).capacity(), 3u);
  EXPECT_EQ(store.shard(2).capacity(), 2u);
  EXPECT_EQ(store.shard(3).capacity(), 2u);
}

TEST(ShardedStoreTest, TinyCapacityStillGivesEveryShardARecord) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 2, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  EXPECT_GE(store.capacity(), 4u);  // Floor of one record per shard.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(store.shard(s).capacity(), 1u);
  }
}

TEST(ShardedStoreTest, ClearResetsEveryShardAndSessionsRecover) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 16, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 2,
                        kSemanticRouterSeed);
  Rng rng(53);
  for (int i = 0; i < 12; ++i) {
    store.Insert(RandomRecord(model, rng, static_cast<uint64_t>(i)));
  }
  ShardedTrajectorySession session(&store);
  std::vector<double> probs(static_cast<size_t>(model.experts_per_layer), 1.0 / 6.0);
  session.ObserveLayer(probs);
  EXPECT_TRUE(session.CurrentBest().found);

  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  session.Reset();
  session.ObserveLayer(probs);
  EXPECT_FALSE(session.CurrentBest().found);
}

}  // namespace
}  // namespace fmoe
