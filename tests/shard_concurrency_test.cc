// Concurrency suite for the sharded Expert Map Store (DESIGN.md §5i), written to run under
// ThreadSanitizer: concurrent inserters routed across shards, trajectory sessions reading
// while inserts land, and concurrent full-store searches. The per-shard shared_mutex
// contract says all of these may interleave freely; TSan verifies no unlocked shared state.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/shard_router.h"
#include "src/core/sharded_store.h"
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

TEST(ShardConcurrencyTest, ParallelInsertersAcrossShards) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 64, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  constexpr int kThreads = 4;
  constexpr int kInsertsPerThread = 32;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &model, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      for (int i = 0; i < kInsertsPerThread; ++i) {
        store.Insert(RandomRecord(model, rng,
                                  static_cast<uint64_t>(t) * kInsertsPerThread +
                                      static_cast<uint64_t>(i)));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_GT(store.size(), 0u);
  EXPECT_LE(store.size(), store.capacity());
}

TEST(ShardConcurrencyTest, SessionsReadWhileInsertersWrite) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 64, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  Rng seed_rng(1);
  for (int i = 0; i < 32; ++i) {
    store.Insert(RandomRecord(model, seed_rng, static_cast<uint64_t>(i)));
  }

  std::atomic<bool> stop{false};
  std::thread inserter([&store, &model, &stop] {
    Rng rng(2);
    uint64_t id = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      store.Insert(RandomRecord(model, rng, id++));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&store, &model, t] {
      Rng rng(static_cast<uint64_t>(10 + t));
      std::vector<double> probs(static_cast<size_t>(model.experts_per_layer));
      for (int round = 0; round < 8; ++round) {
        ShardedTrajectorySession session(&store);
        for (int l = 0; l < model.num_layers; ++l) {
          for (double& v : probs) {
            v = rng.NextDouble();
          }
          session.ObserveLayer(probs);
          if (l % 3 == 0) {
            const SearchResult best = session.CurrentBest();
            if (best.found) {
              // A stale-tolerant read: the record must at least be addressable.
              EXPECT_LT(best.index, store.shard(best.shard).capacity());
            }
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true, std::memory_order_relaxed);
  inserter.join();
}

TEST(ShardConcurrencyTest, ConcurrentSemanticSearchesWithInserts) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 128, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 4,
                        kSemanticRouterSeed);
  Rng seed_rng(3);
  for (int i = 0; i < 64; ++i) {
    store.Insert(RandomRecord(model, seed_rng, static_cast<uint64_t>(i)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &model, t] {
      Rng rng(static_cast<uint64_t>(20 + t));
      for (int i = 0; i < 64; ++i) {
        if (t == 0) {
          store.Insert(RandomRecord(model, rng, static_cast<uint64_t>(2000 + i)));
        } else {
          const std::vector<double> query = {rng.NextGaussian(), rng.NextGaussian()};
          const SearchResult result = store.SemanticSearch(query);
          if (result.found) {
            EXPECT_GE(result.score, -1.0 - 1e-9);
            EXPECT_LE(result.score, 1.0 + 1e-9);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// Many full-store scans from several caller threads at once against one large store: the
// searches are const and share no scratch, so concurrent callers never interfere.
TEST(ShardConcurrencyTest, PooledPartitionedScansFromManyCallers) {
  const ModelConfig model = Tiny();
  ShardedMapStore store(model, 4096, 2, StoreDedupPolicy::kFifo, MapPrecision::kFp32, 1,
                        kSemanticRouterSeed);
  Rng seed_rng(4);
  for (int i = 0; i < 2048; ++i) {
    store.Insert(RandomRecord(model, seed_rng, static_cast<uint64_t>(i)));
  }

  std::vector<std::thread> callers;
  std::vector<SearchResult> results(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&store, &results, t] {
      Rng rng(static_cast<uint64_t>(40 + t));
      SearchResult last;
      for (int i = 0; i < 16; ++i) {
        const std::vector<double> query = {rng.NextGaussian(), rng.NextGaussian()};
        last = store.SemanticSearch(query);
      }
      results[static_cast<size_t>(t)] = last;
    });
  }
  for (std::thread& caller : callers) {
    caller.join();
  }
  for (const SearchResult& result : results) {
    EXPECT_TRUE(result.found);
  }
}

}  // namespace
}  // namespace fmoe
