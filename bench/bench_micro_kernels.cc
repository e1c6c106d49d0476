// Micro-benchmarks (google-benchmark) of the kernels on fMoE's control path: cosine searches
// over the Expert Map Store, dedup inserts, the delta-threshold selection operator, gate
// evaluation, and cache operations. These bound the per-iteration policy cost that Fig. 15
// models as asynchronous work.
#include <benchmark/benchmark.h>

#include "src/cache/expert_cache.h"
#include "src/core/map_store.h"
#include "src/core/prefetcher.h"
#include "src/core/shard_router.h"
#include "src/core/sharded_store.h"
#include "src/moe/gate_simulator.h"
#include "src/util/math.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

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

ExpertMapStore FilledStore(const ModelConfig& model, size_t capacity, int embedding_dim) {
  ExpertMapStore store(model, capacity, 3);
  Rng rng(7);
  for (size_t i = 0; i < capacity; ++i) {
    store.Insert(RandomRecord(model, rng, embedding_dim));
  }
  return store;
}

// The SoA semantic search (one batched strided pass + precomputed norms).
void BM_SemanticSearchSoA(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const int embedding_dim = 72;
  const ExpertMapStore store = FilledStore(model, static_cast<size_t>(state.range(0)),
                                           embedding_dim);
  Rng rng(11);
  std::vector<double> query(static_cast<size_t>(embedding_dim));
  for (double& v : query) {
    v = rng.NextGaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.SemanticSearch(query));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemanticSearchSoA)->Arg(128)->Arg(512)->Arg(1024)->Arg(4096);

// The seed's semantic scan: scalar double-precision CosineSimilarity per materialized record.
void BM_SemanticSearchReference(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const int embedding_dim = 72;
  const ExpertMapStore store = FilledStore(model, static_cast<size_t>(state.range(0)),
                                           embedding_dim);
  Rng rng(11);
  std::vector<double> query(static_cast<size_t>(embedding_dim));
  for (double& v : query) {
    v = rng.NextGaussian();
  }
  for (auto _ : state) {
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
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemanticSearchReference)->Arg(128)->Arg(512)->Arg(1024)->Arg(4096);

// One-shot trajectory search on the SoA engine. Args: (store records, prefix layers).
void BM_TrajectorySearch(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const ExpertMapStore store = FilledStore(model, static_cast<size_t>(state.range(0)), 72);
  Rng rng(13);
  const int prefix_layers = static_cast<int>(state.range(1));
  std::vector<double> prefix(static_cast<size_t>(prefix_layers * model.experts_per_layer));
  for (double& v : prefix) {
    v = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.TrajectorySearch(prefix, prefix_layers));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrajectorySearch)
    ->Args({512, 4})
    ->Args({512, 16})
    ->Args({512, 31})
    ->Args({4096, 4})
    ->Args({4096, 16})
    ->Args({4096, 31});

// The seed implementation of the same search: scalar double-precision CosineSimilarity over
// each record's materialized prefix span — the before side of the before/after pair.
void BM_TrajectorySearchReference(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const ExpertMapStore store = FilledStore(model, static_cast<size_t>(state.range(0)), 72);
  Rng rng(13);
  const int prefix_layers = static_cast<int>(state.range(1));
  std::vector<double> prefix(static_cast<size_t>(prefix_layers * model.experts_per_layer));
  for (double& v : prefix) {
    v = rng.NextDouble();
  }
  for (auto _ : state) {
    SearchResult result;
    for (size_t i = 0; i < store.size(); ++i) {
      const double score = CosineSimilarity(prefix, store.Get(i).map.Prefix(prefix_layers));
      if (!result.found || score > result.score) {
        result.found = true;
        result.index = i;
        result.score = score;
      }
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrajectorySearchReference)
    ->Args({512, 4})
    ->Args({512, 16})
    ->Args({512, 31})
    ->Args({4096, 4})
    ->Args({4096, 16})
    ->Args({4096, 31});

// One full decode iteration of trajectory matching through the incremental session: observe
// all L layers, read the best match on the matcher's default cadence (every 4 layers). This is
// the per-iteration cost the async-overhead model charges (Fig. 15).
void BM_TrajectorySearchIncremental(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const ExpertMapStore store = FilledStore(model, static_cast<size_t>(state.range(0)), 72);
  Rng rng(13);
  std::vector<std::vector<double>> layers(static_cast<size_t>(model.num_layers));
  for (auto& probs : layers) {
    probs.resize(static_cast<size_t>(model.experts_per_layer));
    for (double& v : probs) {
      v = rng.NextDouble();
    }
    NormalizeInPlace(probs);
  }
  TrajectorySearchSession session(&store);
  for (auto _ : state) {
    session.Reset();
    for (int l = 0; l < model.num_layers; ++l) {
      session.ObserveLayer(layers[static_cast<size_t>(l)]);
      if (l % 4 == 0) {
        benchmark::DoNotOptimize(session.CurrentBest());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrajectorySearchIncremental)->Arg(512)->Arg(4096);

// Dedup insert: one batched RDY pass (trajectory + semantic cosines) over the full store.
void BM_InsertDedupSoA(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  ExpertMapStore store = FilledStore(model, static_cast<size_t>(state.range(0)), 72);
  Rng rng(17);
  for (auto _ : state) {
    store.Insert(RandomRecord(model, rng, 72));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InsertDedupSoA)->Arg(512)->Arg(4096);

// One iteration's store work on the Qwen shape (L = 24, J = 60) at a full 1000-map store: a
// session observes all 24 layers, then the iteration's map is inserted with RDY dedup. Passing
// the session lets the insert reuse its full-map dots instead of rescanning all 1440 columns.
void BM_IterationScan(benchmark::State& state) {
  const ModelConfig model = QwenMoeConfig();
  const size_t records = 1000;
  ExpertMapStore store = FilledStore(model, records, 72);
  Rng rng(23);
  std::vector<StoredIteration> incoming;
  for (int i = 0; i < 16; ++i) {
    incoming.push_back(RandomRecord(model, rng, 72));
  }
  TrajectorySearchSession session(&store);
  size_t next = 0;
  for (auto _ : state) {
    const StoredIteration& record = incoming[next++ % incoming.size()];
    session.Reset();
    for (int l = 0; l < model.num_layers; ++l) {
      benchmark::DoNotOptimize(session.ObserveLayer(record.map.Layer(l)));
    }
    benchmark::DoNotOptimize(store.Insert(record, &session));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_IterationScan);

// Semantic search through the sharded store. Args: (records, shards). The shards == 1 row is
// the pure-delegation path (must track BM_SemanticSearchSoA); higher shard counts measure the
// shard-major scan + reduce overhead at identical total record count.
void BM_ShardedSemanticSearch(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const int embedding_dim = 72;
  const size_t records = static_cast<size_t>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  ShardedMapStore store(model, records, 3, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                        shards, kSemanticRouterSeed);
  Rng rng(7);
  for (size_t i = 0; i < records; ++i) {
    store.Insert(RandomRecord(model, rng, embedding_dim));
  }
  Rng qrng(11);
  std::vector<double> query(static_cast<size_t>(embedding_dim));
  for (double& v : query) {
    v = qrng.NextGaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.SemanticSearch(query));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShardedSemanticSearch)
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({4096, 8});

// The §5i invalidation contract, measured in flops: insert one record, then advance a live
// trajectory session by one layer. At shards == 1 every insert bumps the sole generation, so
// the session rebuilds its cached dots over the WHOLE store before scoring the layer; at
// shards == S only the routed shard rebuilds (~1/S of the records), and the other shards'
// cached dots survive. The rebuild_flops counter is the per-(insert+observe) session cost —
// cross-shard invalidation would show as the S > 1 rows matching the S == 1 row.
void BM_ShardedSessionInsertInvalidation(benchmark::State& state) {
  const ModelConfig model = MixtralConfig();
  const size_t records = 512;
  const int shards = static_cast<int>(state.range(0));
  ShardedMapStore store(model, records, 3, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32,
                        shards, kSemanticRouterSeed);
  Rng rng(7);
  for (size_t i = 0; i < records; ++i) {
    store.Insert(RandomRecord(model, rng, 72));
  }
  std::vector<double> probs(static_cast<size_t>(model.experts_per_layer));
  Rng prng(13);
  for (double& v : probs) {
    v = prng.NextDouble();
  }
  NormalizeInPlace(probs);
  ShardedTrajectorySession session(&store);
  // Warm the session past the rebuild-from-empty cost so the loop measures steady state.
  session.ObserveLayer(probs);
  uint64_t rebuild_flops = 0;
  uint64_t steps = 0;
  for (auto _ : state) {
    store.Insert(RandomRecord(model, rng, 72));
    rebuild_flops += session.ObserveLayer(probs);
    ++steps;
    if (session.observed_layers() >= model.num_layers) {
      state.PauseTiming();
      session.Reset();
      session.ObserveLayer(probs);
      state.ResumeTiming();
    }
  }
  state.counters["rebuild_flops"] = benchmark::Counter(
      static_cast<double>(rebuild_flops) / static_cast<double>(steps == 0 ? 1 : steps));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(records));
}
BENCHMARK(BM_ShardedSessionInsertInvalidation)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SelectExperts(benchmark::State& state) {
  Rng rng(19);
  std::vector<double> probs(static_cast<size_t>(state.range(0)));
  for (double& v : probs) {
    v = rng.NextDouble();
  }
  NormalizeInPlace(probs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectExperts(probs, /*score=*/0.6, /*top_k=*/2, 5, 2, PrefetcherOptions{}));
  }
}
BENCHMARK(BM_SelectExperts)->Arg(8)->Arg(60);

void BM_GateDistribution(benchmark::State& state) {
  const ModelConfig model = state.range(0) == 0 ? MixtralConfig() : QwenMoeConfig();
  const GateSimulator gate(model, GateProfile{}, 23);
  RequestRouting routing;
  routing.seed = 99;
  int iteration = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gate.Distribution(routing, iteration++, 5));
  }
}
BENCHMARK(BM_GateDistribution)->Arg(0)->Arg(1);

void BM_CacheInsertEvict(benchmark::State& state) {
  ExpertCache cache(100 * 10, EvictionRule::kPriorityLfu);  // 100 slots of 10 bytes.
  Rng rng(29);
  uint64_t key = 0;
  for (auto _ : state) {
    CacheEntry entry;
    entry.key = key++;
    entry.bytes = 10;
    entry.probability = rng.NextDouble();
    entry.prefetch_pending = false;
    std::vector<CacheEntry> evicted;
    benchmark::DoNotOptimize(cache.Insert(entry, static_cast<double>(key), &evicted));
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_CosineSimilarity(benchmark::State& state) {
  Rng rng(31);
  std::vector<double> a(static_cast<size_t>(state.range(0)));
  std::vector<double> b(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextGaussian();
    b[i] = rng.NextGaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineSimilarity(a, b));
  }
}
BENCHMARK(BM_CosineSimilarity)->Arg(72)->Arg(256)->Arg(1440);

}  // namespace
}  // namespace fmoe

BENCHMARK_MAIN();
