#include "src/serving/engine.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/baselines/on_demand_policy.h"
#include "src/core/fmoe_policy.h"
#include "src/harness/systems.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

ModelConfig Tiny() { return TinyTestConfig(); }

Request MakeRequest(uint64_t id, int prompt = 16, int decode = 4) {
  Request request;
  request.id = id;
  request.routing.cluster = static_cast<int>(id % 4);
  request.routing.blend_cluster = request.routing.cluster;
  request.routing.seed = id * 7919 + 13;
  request.prompt_tokens = prompt;
  request.decode_tokens = decode;
  return request;
}

EngineConfig SmallEngine(uint64_t cache_bytes = 0) {
  EngineConfig config;
  config.prefetch_distance = 2;
  config.expert_cache_bytes = cache_bytes;
  config.cache_policy = "LRU";
  config.gpu_count = 2;
  return config;
}

TEST(ServingEngineTest, ServesRequestToCompletion) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  const Request request = MakeRequest(1, 16, 4);
  const RequestMetrics metrics = engine.ServeRequest(request);
  EXPECT_EQ(metrics.request_id, 1u);
  EXPECT_GT(metrics.Ttft(), 0.0);
  EXPECT_GT(metrics.Tpot(), 0.0);
  EXPECT_EQ(metrics.decode_iterations, 4);
  EXPECT_GT(metrics.completion_time, metrics.first_token_time);
  // 1 prefill + 4 decode iterations.
  EXPECT_EQ(engine.metrics().iterations(), 5u);
}

TEST(ServingEngineTest, HitPlusMissEqualsActivationCount) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  engine.ServeRequest(MakeRequest(1, 16, 6));
  const RunMetrics& metrics = engine.metrics();
  uint64_t per_iteration_total = 0;
  for (const IterationRecord& record : metrics.iteration_records()) {
    per_iteration_total += record.hits + record.misses;
  }
  EXPECT_EQ(per_iteration_total, metrics.expert_hits() + metrics.expert_misses());
  // Decode iterations activate exactly top_k experts per layer (batch of one).
  const IterationRecord& decode = metrics.iteration_records().back();
  EXPECT_EQ(decode.hits + decode.misses,
            static_cast<uint64_t>(Tiny().num_layers * Tiny().top_k));
}

TEST(ServingEngineTest, PreloadAllNeverMisses) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  EngineConfig config = SmallEngine();
  config.preload_all = true;
  ServingEngine engine(Tiny(), config, &policy);
  engine.ServeRequest(MakeRequest(1));
  EXPECT_EQ(engine.metrics().expert_misses(), 0u);
  EXPECT_GT(engine.metrics().expert_hits(), 0u);
  EXPECT_DOUBLE_EQ(engine.metrics().HitRate(), 1.0);
  EXPECT_DOUBLE_EQ(engine.metrics().breakdown().demand_stall, 0.0);
}

TEST(ServingEngineTest, ColdCacheMissesEverythingFirstIteration) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  engine.ServeRequest(MakeRequest(1, 16, 0));
  const IterationRecord& prefill = engine.metrics().iteration_records().front();
  EXPECT_EQ(prefill.hits, 0u);
  EXPECT_GT(prefill.misses, 0u);
}

TEST(ServingEngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    OnDemandOptions od;
    od.expert_agnostic = false;
    OnDemandPolicy policy(od);
    ServingEngine engine(Tiny(), SmallEngine(), &policy);
    engine.ServeRequest(MakeRequest(1));
    engine.ServeRequest(MakeRequest(2));
    return std::pair<double, uint64_t>(engine.metrics().MeanTpot(),
                                       engine.metrics().expert_hits());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ServingEngineTest, OffloadingSlowerThanNoOffload) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy_a(od);
  OnDemandPolicy policy_b(od);
  EngineConfig offload = SmallEngine(Tiny().total_expert_bytes() / 4);
  EngineConfig resident = SmallEngine();
  resident.preload_all = true;
  ServingEngine slow(Tiny(), offload, &policy_a);
  ServingEngine fast(Tiny(), resident, &policy_b);
  slow.ServeRequest(MakeRequest(1, 32, 8));
  fast.ServeRequest(MakeRequest(1, 32, 8));
  EXPECT_GT(slow.metrics().MeanTpot(), fast.metrics().MeanTpot());
  EXPECT_GT(slow.metrics().MeanTtft(), fast.metrics().MeanTtft());
}

TEST(ServingEngineTest, CacheNeverExceedsBudget) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  const uint64_t budget = Tiny().expert_bytes * 3;
  ServingEngine engine(Tiny(), SmallEngine(budget), &policy);
  engine.ServeRequest(MakeRequest(1, 16, 8));
  EXPECT_LE(engine.cache().used_bytes(), budget);
  EXPECT_EQ(engine.cache().capacity_bytes(), budget);
}

TEST(ServingEngineTest, CacheSmallerThanOneExpertStillServes) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(Tiny().expert_bytes / 2), &policy);
  const RequestMetrics metrics = engine.ServeRequest(MakeRequest(1, 8, 2));
  EXPECT_GT(metrics.Tpot(), 0.0);
  EXPECT_EQ(engine.metrics().expert_hits(), 0u);  // Nothing can be cached.
  EXPECT_EQ(engine.cache().used_bytes(), 0u);
}

TEST(ServingEngineTest, WarmupDiscardsMetricsButKeepsCache) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  std::vector<Request> history{MakeRequest(1), MakeRequest(2)};
  engine.WarmupWithHistory(history);
  EXPECT_EQ(engine.metrics().iterations(), 0u);
  EXPECT_GT(engine.cache().size(), 0u);
}

TEST(ServingEngineTest, BatchLockstepServesAllMembers) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  std::vector<Request> batch{MakeRequest(1, 16, 2), MakeRequest(2, 8, 5)};
  const auto results = engine.ServeBatch(batch);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].decode_iterations, 2);
  EXPECT_EQ(results[1].decode_iterations, 5);
  // The longer member finishes later.
  EXPECT_GT(results[1].completion_time, results[0].completion_time);
  // Both share the same prefill completion (lockstep).
  EXPECT_DOUBLE_EQ(results[0].first_token_time, results[1].first_token_time);
}

TEST(ServingEngineTest, ArrivalTimeDelaysStart) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  Request late = MakeRequest(1);
  late.arrival_time = 100.0;
  const RequestMetrics metrics = engine.ServeRequest(late);
  EXPECT_GE(metrics.start_time, 100.0);
  EXPECT_DOUBLE_EQ(metrics.QueueingDelay(), metrics.start_time - 100.0);
}

TEST(ServingEngineTest, QueueingDelayAccruesWhenBusy) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  Request first = MakeRequest(1, 64, 8);
  Request second = MakeRequest(2, 8, 1);
  second.arrival_time = 1e-6;  // Arrives immediately but must wait for the first.
  engine.ServeRequest(first);
  const RequestMetrics metrics = engine.ServeRequest(second);
  EXPECT_GT(metrics.QueueingDelay(), 0.0);
  EXPECT_GT(metrics.EndToEnd(), metrics.Ttft());
}

TEST(ServingEngineTest, FmoePolicyEndToEndProducesHits) {
  FmoeOptions options;
  options.store_capacity = 64;
  FmoePolicy policy(Tiny(), 2, options);
  EngineConfig config = SmallEngine(Tiny().total_expert_bytes() / 3);
  config.cache_policy = "fMoE-PriorityLFU";
  ServingEngine engine(Tiny(), config, &policy);
  std::vector<Request> history;
  for (uint64_t i = 0; i < 10; ++i) {
    history.push_back(MakeRequest(i, 16, 8));
  }
  engine.WarmupWithHistory(history);
  engine.ServeRequest(MakeRequest(100, 16, 8));
  EXPECT_GT(engine.metrics().HitRate(), 0.2);
  EXPECT_GT(policy.store().size(), 0u);
}

TEST(ServingEngineTest, PrefetchTransfersAccountedOnLinks) {
  FmoeOptions options;
  options.store_capacity = 64;
  FmoePolicy policy(Tiny(), 2, options);
  EngineConfig config = SmallEngine(Tiny().total_expert_bytes() / 3);
  config.cache_policy = "fMoE-PriorityLFU";
  ServingEngine engine(Tiny(), config, &policy);
  engine.ServeRequest(MakeRequest(1, 16, 8));
  engine.ServeRequest(MakeRequest(2, 16, 8));
  uint64_t prefetch_bytes = 0;
  for (int dev = 0; dev < engine.cluster().device_count(); ++dev) {
    prefetch_bytes += engine.cluster().device(dev).link().total_prefetch_bytes();
  }
  EXPECT_GT(prefetch_bytes, 0u);
}

TEST(ServingEngineTest, SyncOverheadExtendsIterations) {
  // Two identical engines, one whose policy charges synchronous overhead.
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy quiet(od);

  class NoisyPolicy : public OffloadPolicy {
   public:
    std::string name() const override { return "noisy"; }
    void OnIterationStart(EngineHandle& engine, const IterationContext&) override {
      engine.AddOverhead(OverheadCategory::kContextCollection, 0.01);
    }
  } noisy;

  EngineConfig config = SmallEngine();
  config.preload_all = true;
  ServingEngine a(Tiny(), config, &quiet);
  ServingEngine b(Tiny(), config, &noisy);
  a.ServeRequest(MakeRequest(1, 16, 4));
  b.ServeRequest(MakeRequest(1, 16, 4));
  EXPECT_GT(b.metrics().MeanTpot(), a.metrics().MeanTpot());
  EXPECT_NEAR(b.metrics().breakdown().TotalSyncOverhead(), 0.05, 1e-9);  // 5 iterations.
}

TEST(ServingEngineTest, GpuMemoryAccountingBalances) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(Tiny().expert_bytes * 4), &policy);
  engine.ServeRequest(MakeRequest(1, 16, 8));
  // Device allocations must equal cache contents exactly.
  EXPECT_EQ(engine.cluster().total_used_bytes(), engine.cache().used_bytes());
}


TEST(ServingEngineTest, NoPinsRemainAfterRequestCompletes) {
  FmoeOptions options;
  options.store_capacity = 64;
  FmoePolicy policy(Tiny(), 2, options);
  EngineConfig config = SmallEngine(Tiny().total_expert_bytes() / 3);
  config.cache_policy = "fMoE-PriorityLFU";
  ServingEngine engine(Tiny(), config, &policy);
  engine.ServeRequest(MakeRequest(1, 16, 6));
  // Every resident expert must be evictable once the request is done: the eviction order
  // (which skips pinned entries) covers the whole cache.
  EXPECT_EQ(engine.cache().EvictionOrder(engine.now()).size(), engine.cache().size());
}

TEST(ServingEngineTest, ContinuousBatchingAdmitsMidFlight) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  engine.AdmitRequest(MakeRequest(1, 16, 6));
  EXPECT_EQ(engine.ActiveRequests(), 1u);
  // Run two iterations, then a second request joins mid-flight.
  EXPECT_TRUE(engine.StepIteration());
  EXPECT_TRUE(engine.StepIteration());
  engine.AdmitRequest(MakeRequest(2, 8, 2));
  EXPECT_EQ(engine.ActiveRequests(), 2u);
  while (engine.StepIteration()) {
  }
  const auto completed = engine.DrainCompleted();
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(engine.ActiveRequests(), 0u);
  EXPECT_TRUE(engine.DrainCompleted().empty());  // Drain clears.
  // The late joiner started after the first request and finished before it.
  const RequestMetrics& late = completed[0].request_id == 2 ? completed[0] : completed[1];
  const RequestMetrics& first = completed[0].request_id == 1 ? completed[0] : completed[1];
  EXPECT_GT(late.start_time, first.start_time);
  EXPECT_LT(late.completion_time, first.completion_time);
}

TEST(ServingEngineTest, StepIterationFalseWhenIdle) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  EXPECT_FALSE(engine.StepIteration());
}

TEST(ServingEngineTest, ContinuousBatchMatchesServeBatchForLockstep) {
  // ServeBatch is a thin wrapper over the continuous-batching machinery; identical inputs
  // must produce identical metrics.
  OnDemandOptions od;
  od.expert_agnostic = false;
  std::vector<Request> batch{MakeRequest(1, 16, 3), MakeRequest(2, 8, 5)};

  OnDemandPolicy policy_a(od);
  ServingEngine a(Tiny(), SmallEngine(), &policy_a);
  const auto via_serve_batch = a.ServeBatch(batch);

  OnDemandPolicy policy_b(od);
  ServingEngine b(Tiny(), SmallEngine(), &policy_b);
  for (const Request& request : batch) {
    b.AdmitRequest(request);
  }
  while (b.StepIteration()) {
  }
  const auto via_steps = b.DrainCompleted();
  ASSERT_EQ(via_steps.size(), via_serve_batch.size());
  for (const RequestMetrics& stepped : via_steps) {
    for (const RequestMetrics& batched : via_serve_batch) {
      if (batched.request_id == stepped.request_id) {
        EXPECT_DOUBLE_EQ(stepped.completion_time, batched.completion_time);
        EXPECT_DOUBLE_EQ(stepped.first_token_time, batched.first_token_time);
      }
    }
  }
}


TEST(ServingEngineTest, SizedPrefetchReducesBytesAndMarksPrecision) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  ServingEngine engine(Tiny(), SmallEngine(Tiny().expert_bytes * 8), &policy);
  // Direct EngineHandle use: prefetch one full and one half-precision expert.
  EngineHandle& handle = engine;
  handle.PrefetchAsync(ExpertId{0, 0}, 0.9, 1.0);
  handle.PrefetchAsyncSized(ExpertId{0, 1}, 0.1, 0.5, 0.5);
  const uint64_t full = Tiny().expert_bytes;
  EXPECT_EQ(engine.cache().used_bytes(), full + full / 2);
  EXPECT_EQ(engine.cluster().total_used_bytes(), full + full / 2);
}

TEST(ServingEngineTest, LowPrecisionHitsCounted) {
  FmoeOptions options;
  options.store_capacity = 64;
  options.low_precision_threshold = 0.6;  // Aggressive: most hedge experts go low-precision.
  FmoePolicy policy(Tiny(), 2, options);
  EngineConfig config = SmallEngine(Tiny().total_expert_bytes() / 3);
  config.cache_policy = "fMoE-PriorityLFU";
  ServingEngine engine(Tiny(), config, &policy);
  std::vector<Request> history;
  for (uint64_t i = 0; i < 8; ++i) {
    history.push_back(MakeRequest(i, 16, 8));
  }
  engine.WarmupWithHistory(history);
  engine.ServeRequest(MakeRequest(100, 16, 8));
  EXPECT_GT(engine.metrics().low_precision_hits(), 0u);
  EXPECT_GT(engine.metrics().LowPrecisionShare(), 0.0);
  EXPECT_LE(engine.metrics().LowPrecisionShare(), 1.0);
}

TEST(ServingEngineTest, EvictingQueuedPrefetchCancelsItsTransfer) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  // Two-expert cache on a single device/link. Pin cap = capacity / (2 * expert_bytes) = 1,
  // so the first prefetch pins and later ones stay evictable while queued.
  EngineConfig config = SmallEngine(Tiny().expert_bytes * 2);
  config.gpu_count = 1;
  ServingEngine engine(Tiny(), config, &policy);
  const PcieLink& link = engine.cluster().device(0).link();
  EngineHandle& handle = engine;

  handle.PrefetchAsync(ExpertId{0, 0}, 0.9, 1.0);  // Pinned; starts on the idle link.
  handle.PrefetchAsync(ExpertId{0, 1}, 0.5, 0.9);  // Unpinned; queued behind it.
  EXPECT_EQ(link.queued_prefetch_count(), 1u);
  EXPECT_EQ(link.prefetch_count(), 1u);
  EXPECT_TRUE(engine.store().BookkeepingConsistent());

  // A third prefetch must evict {0,1} (the only unpinned entry) while its transfer is still
  // queued: CleanupEvicted cancels the queued transfer rather than leaking it on the link.
  handle.PrefetchAsync(ExpertId{0, 2}, 0.8, 0.8);
  EXPECT_FALSE(handle.IsCached(ExpertId{0, 1}));
  EXPECT_TRUE(handle.IsCached(ExpertId{0, 0}));
  EXPECT_TRUE(handle.IsCached(ExpertId{0, 2}));
  EXPECT_EQ(link.queued_prefetch_count(), 1u) << "victim's transfer cancelled, new one queued";
  EXPECT_EQ(link.prefetch_count(), 1u) << "the cancelled transfer never started";
  EXPECT_TRUE(engine.store().BookkeepingConsistent());
  EXPECT_EQ(engine.cache().used_bytes(), Tiny().expert_bytes * 2);
  EXPECT_EQ(engine.cluster().total_used_bytes(), Tiny().expert_bytes * 2)
      << "CleanupEvicted must return the victim's device memory";
}

TEST(ServingEngineTest, DemandLoadPromotesQueuedPrefetchAndCancelsIt) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  EngineConfig config = SmallEngine(Tiny().expert_bytes * 4);
  config.gpu_count = 1;
  ServingEngine engine(Tiny(), config, &policy);
  const PcieLink& link = engine.cluster().device(0).link();
  EngineHandle& handle = engine;

  handle.PrefetchAsync(ExpertId{0, 0}, 0.9, 1.0);  // Starts immediately (idle link).
  handle.PrefetchAsync(ExpertId{0, 1}, 0.5, 0.9);  // Queued behind the in-flight transfer.
  EXPECT_EQ(link.queued_prefetch_count(), 1u);

  // Demand-loading an expert whose prefetch has not started cancels the queued transfer and
  // reissues it as a demand load that jumps the queue.
  handle.BlockingLoad(ExpertId{0, 1}, 0.95);
  EXPECT_TRUE(engine.store().BookkeepingConsistent());
  const ConstEntryRef entry = engine.cache().Find(Tiny().FlatIndex(ExpertId{0, 1}));
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_FALSE(entry.prefetch_pending());
  EXPECT_EQ(entry.transfer_tag(), 0u);
  EXPECT_LE(entry.ready_at(), engine.now());
  EXPECT_DOUBLE_EQ(entry.probability(), 0.95);
  EXPECT_EQ(link.demand_load_count(), 1u);
}

TEST(ServingEngineTest, ResidentReducedPrecisionCopyIsNotUpgraded) {
  OnDemandOptions od;
  od.expert_agnostic = false;
  OnDemandPolicy policy(od);
  EngineConfig config = SmallEngine(Tiny().expert_bytes * 8);
  config.gpu_count = 1;
  ServingEngine engine(Tiny(), config, &policy);
  const PcieLink& link = engine.cluster().device(0).link();
  EngineHandle& handle = engine;

  handle.PrefetchAsyncSized(ExpertId{1, 0}, 0.3, 1.0, 0.5);
  const uint64_t key = Tiny().FlatIndex(ExpertId{1, 0});
  ConstEntryRef entry = engine.cache().Find(key);
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_TRUE(entry.reduced_precision());
  EXPECT_EQ(entry.bytes(), Tiny().expert_bytes / 2);
  EXPECT_EQ(link.prefetch_count(), 1u);
  EXPECT_EQ(link.total_prefetch_bytes(), Tiny().expert_bytes / 2);

  // A later full-precision prefetch of the same expert only restamps the probability: the
  // resident half-size copy is already servable, so no second transfer is issued.
  handle.PrefetchAsync(ExpertId{1, 0}, 0.9, 1.0);
  entry = engine.cache().Find(key);
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_TRUE(entry.reduced_precision()) << "upgrade must wait for natural eviction";
  EXPECT_EQ(entry.bytes(), Tiny().expert_bytes / 2);
  EXPECT_DOUBLE_EQ(entry.probability(), 0.9);
  EXPECT_EQ(link.prefetch_count(), 1u) << "no re-transfer for a resident copy";
  EXPECT_EQ(link.total_prefetch_bytes(), Tiny().expert_bytes / 2);
  EXPECT_EQ(engine.cache().used_bytes(), Tiny().expert_bytes / 2);
}

TEST(ServingEngineTest, LosslessDefaultNeverServesLowPrecision) {
  FmoeOptions options;
  options.store_capacity = 64;  // low_precision_threshold defaults to 0 (off).
  FmoePolicy policy(Tiny(), 2, options);
  EngineConfig config = SmallEngine(Tiny().total_expert_bytes() / 3);
  config.cache_policy = "fMoE-PriorityLFU";
  ServingEngine engine(Tiny(), config, &policy);
  engine.ServeRequest(MakeRequest(1, 16, 8));
  engine.ServeRequest(MakeRequest(2, 16, 8));
  EXPECT_EQ(engine.metrics().low_precision_hits(), 0u);
  EXPECT_DOUBLE_EQ(engine.metrics().LowPrecisionShare(), 0.0);
}

}  // namespace
}  // namespace fmoe
