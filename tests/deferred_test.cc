// Tests for the pub-sub deferred-work pipeline: MatcherWorker scheduling semantics
// (serial worker timeline, seq-ordered FIFO pops, topic supersession, bounded depth) and the
// engine-level contract —
// at matcher_latency_scale == 0 every published job applies at its publish instant, while
// nonzero scales degrade hit rate without touching the critical path.
#include "src/serving/deferred.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fmoe_policy.h"
#include "src/serving/engine.h"
#include "src/util/rng.h"
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

TEST(MatcherWorkerTest, DepthDropTakesLowestLiveSequence) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/3);
  std::vector<DeferredJob> victims;
  worker.Publish(0.0, MakeJob(/*topic=*/1, 100.0), &victims);  // seq 1
  worker.Publish(0.0, MakeJob(/*topic=*/2, 1.0), &victims);    // seq 2
  worker.Publish(0.0, MakeJob(/*topic=*/3, 1.0), &victims);    // seq 3
  // Republishing topic 1 supersedes seq 1; the queue then holds seqs 2, 3, 4 with topic 1
  // the oldest topic but no longer the oldest job.
  worker.Publish(0.0, MakeJob(/*topic=*/1, 1.0), &victims);  // seq 4
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].seq, 1u);
  victims.clear();

  worker.Publish(0.0, MakeJob(/*topic=*/5, 1.0), &victims);  // seq 5
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].seq, 2u) << "the depth drop takes the lowest live sequence";
  EXPECT_EQ(victims[0].topic, 2u);

  DeferredJob job;
  std::vector<uint64_t> popped;
  while (worker.PopDue(1000.0, &job)) {
    popped.push_back(job.seq);
  }
  EXPECT_EQ(popped, (std::vector<uint64_t>{3, 4, 5}));
  EXPECT_EQ(worker.pending(), 0u);
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

TEST(MatcherWorkerTest, SequenceNumbersStartAtOneAndIncrease) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/64);
  std::vector<DeferredJob> victims;
  for (uint64_t expected = 1; expected <= 20; ++expected) {
    // Superseded and dropped jobs still consume their number.
    EXPECT_EQ(worker.Publish(0.0, MakeJob(/*topic=*/expected % 3, 1.0), &victims), expected);
  }
}

TEST(MatcherWorkerTest, PopsInDueOrder) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/8);
  std::vector<DeferredJob> victims;
  worker.Publish(0.0, MakeJob(0, 3.0), &victims);  // [0, 3)
  worker.Publish(1.0, MakeJob(0, 1.0), &victims);  // [3, 4)
  worker.Publish(9.0, MakeJob(0, 2.0), &victims);  // [9, 11)
  DeferredJob job;
  std::vector<double> completions;
  while (worker.PopDue(100.0, &job)) {
    completions.push_back(job.completion_time);
  }
  EXPECT_EQ(completions, (std::vector<double>{3.0, 4.0, 11.0}));
}

TEST(MatcherWorkerTest, EqualCompletionsPopInPublishOrder) {
  // Zero-cost jobs on an idle worker all complete at their publish instant.
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/32);
  std::vector<DeferredJob> victims;
  std::vector<uint64_t> published;
  for (int i = 0; i < 16; ++i) {
    published.push_back(worker.Publish(5.0, MakeJob(0, 0.0), &victims));
  }
  DeferredJob job;
  for (const uint64_t seq : published) {
    ASSERT_TRUE(worker.PopDue(5.0, &job));
    EXPECT_EQ(job.seq, seq) << "FIFO tie-break violated";
    EXPECT_DOUBLE_EQ(job.completion_time, 5.0);
  }
  EXPECT_FALSE(worker.PopDue(5.0, &job));
}

TEST(MatcherWorkerTest, PopDueRespectsNow) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/8);
  std::vector<DeferredJob> victims;
  for (int i = 0; i < 3; ++i) {
    worker.Publish(0.0, MakeJob(0, 1.0), &victims);  // Completes at 1, 2, 3.
  }
  DeferredJob job;
  EXPECT_FALSE(worker.PopDue(0.5, &job));
  ASSERT_TRUE(worker.PopDue(2.0, &job));
  EXPECT_DOUBLE_EQ(job.completion_time, 1.0);
  ASSERT_TRUE(worker.PopDue(2.0, &job));
  EXPECT_DOUBLE_EQ(job.completion_time, 2.0);
  EXPECT_FALSE(worker.PopDue(2.0, &job));
  EXPECT_EQ(worker.pending(), 1u);
}

TEST(MatcherWorkerTest, SupersededJobIsReturnedAndNeverPops) {
  MatcherWorker worker(/*latency_scale=*/1.0, /*queue_depth=*/8);
  std::vector<DeferredJob> victims;
  const uint64_t stale = worker.Publish(0.0, MakeJob(/*topic=*/4, 2.0), &victims);
  const uint64_t other = worker.Publish(0.0, MakeJob(/*topic=*/5, 1.0), &victims);
  const uint64_t fresh = worker.Publish(0.5, MakeJob(/*topic=*/4, 1.0), &victims);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].seq, stale);
  EXPECT_DOUBLE_EQ(victims[0].cost_seconds, 2.0);
  DeferredJob job;
  std::vector<uint64_t> popped;
  while (worker.PopDue(100.0, &job)) {
    popped.push_back(job.seq);
  }
  EXPECT_EQ(popped, (std::vector<uint64_t>{other, fresh}));
}

// Random publish / supersede / drop / pop workload against a naive model of the pending set:
// pops come out in seq order with nondecreasing completion, victims are exactly the
// superseded same-topic job and the oldest jobs past the depth bound.
class MatcherWorkerRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherWorkerRandomTest, RandomOpsPopInSeqOrder) {
  Rng rng(GetParam());
  constexpr int kDepth = 6;
  MatcherWorker worker(/*latency_scale=*/rng.NextUniform(0.5, 2.0), kDepth);
  std::map<uint64_t, uint64_t> model;  // seq -> topic of every pending job.
  double now = 0.0;
  double last_completion = 0.0;
  uint64_t last_popped = 0;
  for (int step = 0; step < 2000; ++step) {
    now += rng.NextUniform(0.0, 0.5);
    if (rng.NextBounded(3) != 0) {  // Publish (twice as likely, so the queue fills).
      const uint64_t topic = rng.NextBounded(5);  // 0 = no topic.
      std::vector<uint64_t> expected_victims;
      if (topic != 0) {
        for (const auto& [seq, pending_topic] : model) {
          if (pending_topic == topic) {
            expected_victims.push_back(seq);
          }
        }
        ASSERT_LE(expected_victims.size(), 1u);
        if (!expected_victims.empty()) {
          model.erase(expected_victims.front());
        }
      }
      while (model.size() >= kDepth) {
        expected_victims.push_back(model.begin()->first);
        model.erase(model.begin());
      }
      std::vector<DeferredJob> victims;
      const uint64_t seq =
          worker.Publish(now, MakeJob(topic, rng.NextUniform(0.0, 1.0)), &victims);
      ASSERT_EQ(victims.size(), expected_victims.size());
      for (size_t i = 0; i < victims.size(); ++i) {
        EXPECT_EQ(victims[i].seq, expected_victims[i]);
      }
      EXPECT_TRUE(model.empty() || seq > model.rbegin()->first);
      model.emplace(seq, topic);
    } else {  // Drain everything due.
      DeferredJob job;
      while (worker.PopDue(now, &job)) {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(job.seq, model.begin()->first) << "pops must follow publish order";
        EXPECT_GT(job.seq, last_popped);
        EXPECT_LE(job.completion_time, now);
        EXPECT_GE(job.completion_time, last_completion) << "completions must not decrease";
        last_completion = job.completion_time;
        last_popped = job.seq;
        model.erase(model.begin());
      }
    }
    ASSERT_EQ(worker.pending(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherWorkerRandomTest, ::testing::Values(3u, 17u, 2026u));

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
