// Randomized model-checking tests: drive the expert cache and the PCIe link with long random
// operation sequences and verify them against simple reference models / global invariants.
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/on_demand_policy.h"
#include "src/cache/expert_cache.h"
#include "src/core/fmoe_policy.h"
#include "src/memsim/link.h"
#include "src/serving/engine.h"
#include "src/serving/scheduler.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

// ---------------------------------------------------------------------------
// ExpertCache vs a reference model.

struct ReferenceEntry {
  uint64_t bytes = 0;
  int pins = 0;
};

class CacheFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheFuzzTest, MatchesReferenceModelUnderRandomOps) {
  Rng rng(GetParam());
  const uint64_t capacity = 200;
  ExpertCache cache(capacity, EvictionRule::kLfu);

  std::map<uint64_t, ReferenceEntry> reference;
  uint64_t reference_bytes = 0;
  double now = 0.0;

  for (int step = 0; step < 4000; ++step) {
    now += rng.NextDouble();
    const uint64_t key = rng.NextBounded(40);
    switch (rng.NextBounded(6)) {
      case 0:
      case 1: {  // Insert.
        CacheEntry entry;
        entry.key = key;
        entry.bytes = 5 + rng.NextBounded(30);
        entry.prefetch_pending = false;
        std::vector<CacheEntry> evicted;
        const bool inserted = cache.Insert(entry, now, &evicted);
        if (reference.contains(key)) {
          ASSERT_FALSE(inserted);  // Duplicate keys always rejected.
          break;
        }
        if (inserted) {
          for (const CacheEntry& victim : evicted) {
            const auto it = reference.find(victim.key);
            ASSERT_NE(it, reference.end());
            ASSERT_EQ(it->second.pins, 0);  // Never evicts pinned entries.
            reference_bytes -= it->second.bytes;
            reference.erase(it);
          }
          reference[key] = ReferenceEntry{entry.bytes, 0};
          reference_bytes += entry.bytes;
        } else {
          ASSERT_TRUE(evicted.empty());  // Failed inserts must roll back completely.
        }
        break;
      }
      case 2: {  // Touch.
        if (reference.contains(key)) {
          cache.Touch(key, now);
        }
        break;
      }
      case 3: {  // Pin / unpin.
        const auto it = reference.find(key);
        if (it == reference.end()) {
          break;
        }
        if (it->second.pins > 0 && rng.NextBool(0.6)) {
          cache.Unpin(key);
          --it->second.pins;
        } else {
          cache.Pin(key);
          ++it->second.pins;
        }
        break;
      }
      case 4: {  // Remove (unpinned only).
        const auto it = reference.find(key);
        if (it != reference.end() && it->second.pins == 0) {
          CacheEntry removed;
          ASSERT_TRUE(cache.Remove(key, &removed));
          ASSERT_EQ(removed.bytes, it->second.bytes);
          reference_bytes -= it->second.bytes;
          reference.erase(it);
        } else if (it == reference.end()) {
          ASSERT_FALSE(cache.Remove(key, nullptr));
        }
        break;
      }
      case 5: {  // Decay.
        cache.DecayFrequencies(0.5 + 0.5 * rng.NextDouble());
        break;
      }
    }
    // Global invariants after every operation.
    ASSERT_EQ(cache.size(), reference.size());
    ASSERT_EQ(cache.used_bytes(), reference_bytes);
    ASSERT_LE(cache.used_bytes(), capacity);
    for (const auto& [ref_key, ref_entry] : reference) {
      const ConstEntryRef entry = std::as_const(cache).Find(ref_key);
      ASSERT_TRUE(static_cast<bool>(entry));
      ASSERT_EQ(entry.bytes(), ref_entry.bytes);
      ASSERT_EQ(entry.pin_count(), ref_entry.pins);
      ASSERT_GE(entry.frequency(), 0.0);
    }
  }
  // Drain pins so the fixture ends in a clean state.
  for (auto& [key, entry] : reference) {
    while (entry.pins-- > 0) {
      cache.Unpin(key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzzTest, ::testing::Values(1u, 17u, 99u, 12345u));

// ---------------------------------------------------------------------------
// PcieLink schedule invariants under random operation streams.

class LinkFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinkFuzzTest, ScheduleInvariantsHold) {
  Rng rng(GetParam());
  LinkConfig config;
  config.bandwidth_bytes_per_sec = 1000.0;
  config.fixed_latency_sec = 0.01;
  PcieLink link(config);

  std::map<uint64_t, double> completion_by_tag;
  std::set<uint64_t> outstanding;  // Enqueued, neither started nor cancelled.
  uint64_t next_tag = 1;
  double now = 0.0;
  double last_completion = 0.0;

  link.set_completion_callback([&](uint64_t tag, double completion) {
    // Each prefetch completes at most once, never before its enqueue time, and link
    // completions are monotone (FIFO service order).
    ASSERT_TRUE(outstanding.contains(tag));
    outstanding.erase(tag);
    ASSERT_FALSE(completion_by_tag.contains(tag));
    completion_by_tag[tag] = completion;
    ASSERT_GE(completion, last_completion - 1e-12);
    last_completion = completion;
  });

  for (int step = 0; step < 3000; ++step) {
    now += rng.NextExponential(5.0);
    switch (rng.NextBounded(4)) {
      case 0: {  // Prefetch.
        const uint64_t tag = next_tag++;
        outstanding.insert(tag);
        link.EnqueuePrefetch(now, tag, 10 + rng.NextBounded(200));
        break;
      }
      case 1: {  // Demand load: completes in the future, after transfer time.
        const uint64_t bytes = 10 + rng.NextBounded(200);
        const double completion = link.DemandLoad(now, bytes);
        ASSERT_GE(completion, now + link.TransferDuration(bytes) - 1e-12);
        ASSERT_GE(link.busy_until(), completion - 1e-12);
        break;
      }
      case 2: {  // Cancel a random outstanding prefetch (it may already have started).
        if (!outstanding.empty()) {
          const uint64_t tag = *outstanding.begin();
          if (link.CancelQueuedPrefetch(tag)) {
            outstanding.erase(tag);
          }
        }
        break;
      }
      case 3: {  // Tick.
        link.Tick(now);
        break;
      }
    }
    ASSERT_LE(link.queued_prefetch_count(), outstanding.size());
  }
  // Flush everything: all outstanding prefetches eventually start.
  link.Tick(now + 1e6);
  ASSERT_TRUE(outstanding.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkFuzzTest, ::testing::Values(2u, 33u, 555u, 98765u));

// ---------------------------------------------------------------------------
// Full-engine invariants under randomized asynchronous-pipeline and tier knobs: whatever the
// matcher latency scale, queue depth, and storage hierarchy (two-tier or three-tier, any host
// capacity, any NVMe speed, KV pressure on or off), the cache never overflows, transfer-tag
// and tier bookkeeping stay consistent, virtual time only moves forward, and the deferred
// counters balance. Random tier knobs deliberately race promotions (host staging chained into
// GPU fills) against demand promotion and GPU-victim demotion.

class EngineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzTest, RandomAsyncKnobsPreserveEngineInvariants) {
  Rng rng(GetParam());
  const ModelConfig model = TinyTestConfig();
  const double kScales[] = {0.0, 0.25, 1.0, 16.0, 1024.0};

  for (int round = 0; round < 6; ++round) {
    EngineConfig config;
    config.prefetch_distance = 1 + static_cast<int>(rng.NextBounded(3));
    config.expert_cache_bytes = model.expert_bytes * (2 + rng.NextBounded(12));
    config.cache_policy = "fMoE-PriorityLFU";
    config.gpu_count = 1 + static_cast<int>(rng.NextBounded(3));
    config.matcher_latency_scale = kScales[rng.NextBounded(5)];
    config.matcher_queue_depth = 1 + static_cast<int>(rng.NextBounded(48));
    if (rng.NextBool(0.7)) {  // Three-tier hierarchy with randomized tier knobs.
      config.tier.nvme_backing = true;
      config.tier.host_capacity_bytes = model.expert_bytes * rng.NextBounded(10);  // 0 = 2-tier.
      config.tier.nvme_link.bandwidth_bytes_per_sec = 1.0e9 + 1.0e9 * rng.NextDouble() * 8.0;
      config.tier.nvme_link.fixed_latency_sec = 20e-6 + 200e-6 * rng.NextDouble();
      config.tier.allow_direct_nvme_gpu = rng.NextBool(0.25);
      config.tier.kv_bytes_per_token = rng.NextBool(0.5) ? 64.0 * rng.NextDouble() : 0.0;
    }

    FmoeOptions options;
    options.store_capacity = 32;
    options.host_stage_candidates = static_cast<int>(rng.NextBounded(4));
    FmoePolicy policy(model, config.prefetch_distance, options);
    ServingEngine engine(model, config, &policy);

    double last_now = 0.0;
    for (uint64_t r = 0; r < 6; ++r) {
      Request request;
      request.id = static_cast<uint64_t>(round) * 100 + r;
      request.routing.cluster = static_cast<int>(rng.NextBounded(4));
      request.routing.blend_cluster = request.routing.cluster;
      request.routing.seed = request.id * 7919 + 13;
      request.prompt_tokens = 4 + static_cast<int>(rng.NextBounded(24));
      request.decode_tokens = static_cast<int>(rng.NextBounded(8));
      engine.ServeRequest(request);

      ASSERT_LE(engine.cache().used_bytes(), engine.cache().capacity_bytes());
      ASSERT_TRUE(engine.store().BookkeepingConsistent());
      ASSERT_LE(engine.store().host().used_bytes(), engine.store().host().capacity_bytes());
      if (!config.tier.allow_direct_nvme_gpu) {
        ASSERT_EQ(engine.store().stats().direct_loads, 0u)
            << "NVMe->GPU teleport without the direct path configured";
      }
      ASSERT_GE(engine.now(), last_now);
      last_now = engine.now();
      ASSERT_LE(engine.PendingDeferredJobs(),
                static_cast<size_t>(config.matcher_queue_depth));
      for (const uint64_t key : engine.cache().Keys()) {
        const ConstEntryRef entry = engine.cache().Find(key);
        ASSERT_TRUE(static_cast<bool>(entry));
        // A live entry is either awaiting its queued transfer (tagged) or fully scheduled
        // (untagged, with a concrete ready time) — never a tagged non-pending orphan.
        ASSERT_EQ(entry.prefetch_pending(), entry.transfer_tag() != 0) << "key " << key;
        if (!entry.prefetch_pending()) {
          ASSERT_TRUE(std::isfinite(entry.ready_at()))
              << "scheduled entry must have a finite ready time";
        }
      }
    }

    const RunMetrics& metrics = engine.metrics();
    const DeferredPipelineStats& deferred = metrics.deferred();
    EXPECT_EQ(deferred.applied + deferred.superseded + deferred.dropped + deferred.blocking +
                  engine.PendingDeferredJobs(),
              deferred.published)
        << "every published job must be applied, superseded, dropped, or still pending";
    if (config.matcher_latency_scale == 0.0) {
      EXPECT_EQ(engine.PendingDeferredJobs(), 0u) << "scale 0 applies every job inline";
    }
    uint64_t per_iteration = 0;
    for (const IterationRecord& record : metrics.iteration_records()) {
      per_iteration += record.hits + record.misses;
    }
    EXPECT_EQ(per_iteration, metrics.expert_hits() + metrics.expert_misses());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest, ::testing::Values(5u, 77u, 4242u, 31337u));

// ---------------------------------------------------------------------------
// Scheduler + admission-controller invariants under randomized knobs (DESIGN.md §5j): for any
// policy, SLO, gain, window, cadence, and queue discipline, the controller's books must
// balance — every arrived request is either admitted (and then served) or rejected, the
// scheduler's counters agree with the controller's, and open loop never sheds.

class SchedulerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerFuzzTest, ControllerBookkeepingConsistent) {
  Rng rng(GetParam());
  const ModelConfig model = TinyTestConfig();

  for (int round = 0; round < 8; ++round) {
    EngineConfig config;
    config.prefetch_distance = 1 + static_cast<int>(rng.NextBounded(3));
    config.expert_cache_bytes = model.expert_bytes * (2 + rng.NextBounded(12));
    config.cache_policy = "LRU";
    config.gpu_count = 1 + static_cast<int>(rng.NextBounded(2));
    OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
    ServingEngine engine(model, config, &policy);

    SchedulerOptions sched;
    sched.max_batch_size = 1 + static_cast<int>(rng.NextBounded(6));
    sched.discipline = rng.NextBool(0.5) ? SchedulerOptions::QueueDiscipline::kFcfs
                                         : SchedulerOptions::QueueDiscipline::kShortestJobFirst;
    const bool closed_loop = rng.NextBool(0.5);
    sched.admission.policy =
        closed_loop ? AdmissionPolicyKind::kGradient : AdmissionPolicyKind::kOpenLoop;
    sched.admission.slo_sec = rng.NextBool(0.5) ? 0.02 + rng.NextDouble() : 0.0;
    sched.admission.window_sec = 0.05 + rng.NextDouble();
    sched.admission.update_period_sec = rng.NextBool(0.3) ? 0.0 : 0.05 * rng.NextDouble();
    sched.admission.gain = 0.05 + 0.9 * rng.NextDouble();
    ContinuousBatchScheduler scheduler(&engine, sched);

    const size_t request_count = 4 + rng.NextBounded(28);
    std::vector<Request> requests;
    double arrival = 0.0;
    for (uint64_t r = 0; r < request_count; ++r) {
      Request request;
      request.id = static_cast<uint64_t>(round) * 1000 + r;
      request.routing.cluster = static_cast<int>(rng.NextBounded(4));
      request.routing.blend_cluster = request.routing.cluster;
      request.routing.seed = request.id * 7919 + 13;
      request.prompt_tokens = 4 + static_cast<int>(rng.NextBounded(24));
      request.decode_tokens = 1 + static_cast<int>(rng.NextBounded(16));
      request.arrival_time = arrival;
      // Mix simultaneous stampedes (deep queues that can trip the shedder) with gaps.
      arrival += rng.NextBool(0.5) ? 0.0 : rng.NextExponential(20.0);
      requests.push_back(request);
    }

    const auto completed = scheduler.Run(requests);
    const SchedulerStats& stats = scheduler.stats();
    const AdmissionController& controller = scheduler.controller();

    // The books balance: arrived partitions into admitted + rejected; admitted == served.
    ASSERT_EQ(stats.arrived_requests, request_count);
    ASSERT_EQ(stats.arrived_requests, stats.admitted_requests + stats.rejected_requests);
    ASSERT_EQ(stats.served_requests, stats.admitted_requests);
    ASSERT_EQ(completed.size(), stats.served_requests);
    // Scheduler and controller agree on every counter.
    ASSERT_EQ(controller.counters().arrived, stats.arrived_requests);
    ASSERT_EQ(controller.counters().admitted, stats.admitted_requests);
    ASSERT_EQ(controller.counters().rejected, stats.rejected_requests);
    // Open loop (or a disabled SLO) never sheds.
    if (!closed_loop || sched.admission.slo_sec == 0.0) {
      ASSERT_EQ(stats.rejected_requests, 0u);
    }
    // Whatever the controller did to the batch limit, occupancy respects the configured max.
    ASSERT_LE(stats.mean_batch_occupancy,
              static_cast<double>(sched.max_batch_size) + 1e-12);
    ASSERT_TRUE(engine.store().BookkeepingConsistent());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzzTest, ::testing::Values(7u, 123u, 2026u, 60901u));

}  // namespace
}  // namespace fmoe
