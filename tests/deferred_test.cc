// Tests for the pub-sub deferred-work pipeline: MatcherWorker scheduling semantics
// (serial worker timeline, topic supersession, bounded depth) and the engine-level contract —
// at matcher_latency_scale == 0 every published job applies at its publish instant, while
// nonzero scales degrade hit rate without touching the critical path.
#include "src/serving/deferred.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fmoe_policy.h"
#include "src/serving/engine.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

DeferredJob MakeJob(uint64_t topic, double cost) {
  DeferredJob job;
  job.topic = topic;
  job.cost_seconds = cost;
  return job;
}

TEST(MatcherWorkerTest, ScaleZeroIsSynchronous) {
  MatcherWorker worker(/*latency_scale=*/0.0, /*queue_depth=*/4);
  EXPECT_TRUE(worker.synchronous());
  MatcherWorker modeled(/*latency_scale=*/1.0, /*queue_depth=*/4);
  EXPECT_FALSE(modeled.synchronous());
}

TEST(MatcherWorkerTest, SerialWorkerQueuesJobsBackToBack) {
  MatcherWorker worker(/*latency_scale=*/2.0, /*queue_depth=*/8);
  std::vector<DeferredJob> victims;
  worker.Publish(0.0, MakeJob(0, 1.0), &victims);
  worker.Publish(0.0, MakeJob(0, 0.5), &victims);
  EXPECT_TRUE(victims.empty());
  EXPECT_EQ(worker.pending(), 2u);
  // Serial timeline: job 1 runs [0, 2), job 2 runs [2, 3).
  EXPECT_DOUBLE_EQ(worker.worker_free_at(), 3.0);

  DeferredJob job;
  EXPECT_FALSE(worker.PopDue(1.9, &job));
  ASSERT_TRUE(worker.PopDue(2.0, &job));
  EXPECT_DOUBLE_EQ(job.start_time, 0.0);
  EXPECT_DOUBLE_EQ(job.completion_time, 2.0);
  ASSERT_TRUE(worker.PopDue(3.0, &job));
  EXPECT_DOUBLE_EQ(job.start_time, 2.0);
  EXPECT_DOUBLE_EQ(job.completion_time, 3.0);
  EXPECT_EQ(worker.pending(), 0u);
}

TEST(MatcherWorkerTest, IdleWorkerStartsAtPublishTime) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/8);
  std::vector<DeferredJob> victims;
  worker.Publish(5.0, MakeJob(0, 1.0), &victims);
  DeferredJob job;
  ASSERT_TRUE(worker.PopDue(6.0, &job));
  EXPECT_DOUBLE_EQ(job.publish_time, 5.0);
  EXPECT_DOUBLE_EQ(job.start_time, 5.0);
  EXPECT_DOUBLE_EQ(job.completion_time, 6.0);
}

TEST(MatcherWorkerTest, NewerPublishSupersedesPendingTopic) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/8);
  std::vector<DeferredJob> victims;
  worker.Publish(0.0, MakeJob(/*topic=*/7, 10.0), &victims);
  worker.Publish(0.0, MakeJob(/*topic=*/9, 10.0), &victims);
  ASSERT_TRUE(victims.empty());

  worker.Publish(1.0, MakeJob(/*topic=*/7, 1.0), &victims);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].topic, 7u);
  EXPECT_DOUBLE_EQ(victims[0].cost_seconds, 10.0);
  EXPECT_EQ(worker.pending(), 2u);  // Topic 9 plus the fresh topic-7 job.
}

TEST(MatcherWorkerTest, DepthBoundDropsOldestPending) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/2);
  std::vector<DeferredJob> victims;
  worker.Publish(0.0, MakeJob(/*topic=*/1, 100.0), &victims);
  worker.Publish(0.0, MakeJob(/*topic=*/2, 100.0), &victims);
  EXPECT_TRUE(victims.empty());
  worker.Publish(0.0, MakeJob(/*topic=*/3, 1.0), &victims);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].topic, 1u) << "the stalest pending job is the drop victim";
  EXPECT_EQ(worker.pending(), 2u);

  // The dropped job's topic bookkeeping is gone: a new topic-1 publish supersedes nothing.
  victims.clear();
  worker.Publish(0.0, MakeJob(/*topic=*/1, 1.0), &victims);
  ASSERT_EQ(victims.size(), 1u);  // Depth drop again (topic 2 now oldest), not supersession.
  EXPECT_EQ(victims[0].topic, 2u);
}

TEST(MatcherWorkerTest, PopReportsQueueSequence) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/4);
  std::vector<DeferredJob> victims;
  const uint64_t first = worker.Publish(0.0, MakeJob(0, 1.0), &victims);
  const uint64_t second = worker.Publish(0.0, MakeJob(0, 1.0), &victims);
  EXPECT_LT(first, second);
  DeferredJob job;
  ASSERT_TRUE(worker.PopDue(100.0, &job));
  EXPECT_EQ(job.seq, first);
  ASSERT_TRUE(worker.PopDue(100.0, &job));
  EXPECT_EQ(job.seq, second);
}

// ---------------------------------------------------------------------------
// Replay equivalence: fMoE through the published pipeline at several matcher speeds. Scale 0
// applies every job inline; any scale must be deterministic run to run.

std::vector<Request> ReplayWorkload(size_t count) {
  WorkloadGenerator generator(LmsysLikeProfile(), /*seed=*/7);
  std::vector<Request> requests = generator.Generate(count);
  for (Request& request : requests) {
    request.decode_tokens = std::min(request.decode_tokens, 6);
  }
  return requests;
}

EngineConfig ReplayEngineConfig(const ModelConfig& model, double matcher_latency_scale) {
  EngineConfig config;
  config.prefetch_distance = 2;
  config.expert_cache_bytes = model.total_expert_bytes() / 4;
  config.cache_policy = "fMoE-PriorityLFU";
  config.gpu_count = 2;
  config.matcher_latency_scale = matcher_latency_scale;
  return config;
}

RunMetrics RunFmoe(double matcher_latency_scale) {
  const ModelConfig model = TinyTestConfig();
  FmoeOptions options;
  options.store_capacity = 64;
  FmoePolicy policy(model, /*prefetch_distance=*/2, options);
  ServingEngine engine(model, ReplayEngineConfig(model, matcher_latency_scale), &policy);
  for (const Request& request : ReplayWorkload(8)) {
    engine.ServeRequest(request);
  }
  return engine.metrics();
}

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.expert_hits(), b.expert_hits());
  EXPECT_EQ(a.expert_misses(), b.expert_misses());
  EXPECT_EQ(a.iterations(), b.iterations());
  // Exact double equality, deliberately: identical runs must replay, not approximate.
  EXPECT_EQ(a.MeanTtft(), b.MeanTtft());
  EXPECT_EQ(a.MeanTpot(), b.MeanTpot());
  EXPECT_EQ(a.MeanEndToEnd(), b.MeanEndToEnd());
  const LatencyBreakdown& ba = a.breakdown();
  const LatencyBreakdown& bb = b.breakdown();
  EXPECT_EQ(ba.attention_compute, bb.attention_compute);
  EXPECT_EQ(ba.expert_compute, bb.expert_compute);
  EXPECT_EQ(ba.demand_stall, bb.demand_stall);
  EXPECT_EQ(ba.layer_overhead, bb.layer_overhead);
  for (size_t i = 0; i < ba.sync_overhead.size(); ++i) {
    EXPECT_EQ(ba.sync_overhead[i], bb.sync_overhead[i]) << "sync category " << i;
    EXPECT_EQ(ba.async_work[i], bb.async_work[i]) << "async category " << i;
  }
  ASSERT_EQ(a.EndToEndLatencies().size(), b.EndToEndLatencies().size());
  for (size_t i = 0; i < a.EndToEndLatencies().size(); ++i) {
    EXPECT_EQ(a.EndToEndLatencies()[i], b.EndToEndLatencies()[i]) << "request " << i;
  }
}

TEST(ReplayEquivalenceTest, ScaleZeroReplaysLegacySynchronousEngine) {
  // At scale 0 the matcher is instantaneous: every published job applies at its publish
  // instant, so all of its modeled work counts as overlapped and nothing waits, is
  // superseded, or is dropped.
  const RunMetrics published = RunFmoe(/*matcher_latency_scale=*/0.0);
  const DeferredPipelineStats& stats = published.deferred();
  EXPECT_GT(stats.published, 0u);
  EXPECT_EQ(stats.applied, stats.published);
  EXPECT_EQ(stats.overlapped_s, stats.modeled_work_s);
  EXPECT_EQ(stats.Pending(), 0u);
  EXPECT_EQ(stats.superseded, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(ReplayEquivalenceTest, SlowMatcherDegradesHitRateNotCriticalPath) {
  const RunMetrics fast = RunFmoe(/*matcher_latency_scale=*/0.0);
  const RunMetrics slow = RunFmoe(/*matcher_latency_scale=*/1e6);
  // A matcher this slow starves prefetch lead time: strictly fewer hits...
  EXPECT_LT(slow.HitRate(), fast.HitRate());
  // ...but identical synchronous overhead — deferral never blocks the forward pass.
  EXPECT_EQ(slow.breakdown().TotalSyncOverhead(), fast.breakdown().TotalSyncOverhead());
  EXPECT_GT(slow.deferred().published, 0u);
}

TEST(ReplayEquivalenceTest, DeterministicAcrossIdenticalRuns) {
  const RunMetrics a = RunFmoe(/*matcher_latency_scale=*/3.5);
  const RunMetrics b = RunFmoe(/*matcher_latency_scale=*/3.5);
  ExpectBitIdentical(a, b);
  EXPECT_EQ(a.deferred().published, b.deferred().published);
  EXPECT_EQ(a.deferred().applied, b.deferred().applied);
  EXPECT_EQ(a.deferred().superseded, b.deferred().superseded);
  EXPECT_EQ(a.deferred().dropped, b.deferred().dropped);
  EXPECT_EQ(a.deferred().overlapped_s, b.deferred().overlapped_s);
}

}  // namespace
}  // namespace fmoe
