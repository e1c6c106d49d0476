#include "src/serving/scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/baselines/on_demand_policy.h"
#include "src/core/fmoe_policy.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

ModelConfig Tiny() { return TinyTestConfig(); }

EngineConfig SmallEngine() {
  EngineConfig config;
  config.prefetch_distance = 2;
  config.cache_policy = "LRU";
  config.gpu_count = 2;
  return config;
}

Request MakeRequest(uint64_t id, double arrival, int decode = 4) {
  Request request;
  request.id = id;
  request.routing.cluster = static_cast<int>(id % 3);
  request.routing.blend_cluster = request.routing.cluster;
  request.routing.seed = id * 677 + 3;
  request.prompt_tokens = 12;
  request.decode_tokens = decode;
  request.arrival_time = arrival;
  return request;
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : policy_(OnDemandOptions{.expert_agnostic = false}) {}

  OnDemandPolicy policy_;
};

TEST_F(SchedulerTest, ServesEveryRequestExactlyOnce) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  ContinuousBatchScheduler scheduler(&engine, SchedulerOptions{});
  std::vector<Request> requests;
  for (uint64_t i = 0; i < 8; ++i) {
    requests.push_back(MakeRequest(i, 0.01 * static_cast<double>(i)));
  }
  const auto completed = scheduler.Run(requests);
  ASSERT_EQ(completed.size(), 8u);
  std::set<uint64_t> ids;
  for (const RequestMetrics& metrics : completed) {
    ids.insert(metrics.request_id);
    EXPECT_GE(metrics.start_time, metrics.arrival_time);
    EXPECT_GT(metrics.completion_time, metrics.first_token_time);
  }
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ(scheduler.stats().served_requests, 8u);
}

TEST_F(SchedulerTest, RespectsBatchLimit) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  SchedulerOptions options;
  options.max_batch_size = 2;
  ContinuousBatchScheduler scheduler(&engine, options);
  std::vector<Request> requests;
  for (uint64_t i = 0; i < 6; ++i) {
    requests.push_back(MakeRequest(i, 0.0));
  }
  scheduler.Run(requests);
  EXPECT_LE(scheduler.stats().mean_batch_occupancy, 2.0);
  EXPECT_GT(scheduler.stats().mean_batch_occupancy, 1.0);  // Load keeps the batch full.
}

TEST_F(SchedulerTest, LateArrivalsJoinMidFlight) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  SchedulerOptions options;
  options.max_batch_size = 4;
  ContinuousBatchScheduler scheduler(&engine, options);
  // Request 0 is long; request 1 arrives while 0 is decoding and should overlap with it.
  std::vector<Request> requests{MakeRequest(0, 0.0, /*decode=*/20),
                                MakeRequest(1, 0.002, /*decode=*/2)};
  const auto completed = scheduler.Run(requests);
  ASSERT_EQ(completed.size(), 2u);
  const RequestMetrics& short_request =
      completed[0].request_id == 1 ? completed[0] : completed[1];
  const RequestMetrics& long_request =
      completed[0].request_id == 0 ? completed[0] : completed[1];
  // The short request finished before the long one: it joined mid-flight.
  EXPECT_LT(short_request.completion_time, long_request.completion_time);
  EXPECT_GT(scheduler.stats().mean_batch_occupancy, 1.0);
}

TEST_F(SchedulerTest, IdleGapsSkipToNextArrival) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  ContinuousBatchScheduler scheduler(&engine, SchedulerOptions{});
  std::vector<Request> requests{MakeRequest(0, 0.0, 2), MakeRequest(1, 100.0, 2)};
  const auto completed = scheduler.Run(requests);
  ASSERT_EQ(completed.size(), 2u);
  const RequestMetrics& late = completed[0].request_id == 1 ? completed[0] : completed[1];
  EXPECT_GE(late.start_time, 100.0);
  EXPECT_LT(late.QueueingDelay(), 1e-9);  // Engine was idle: no queueing.
}

TEST_F(SchedulerTest, ShortestJobFirstPrefersShortRequests) {
  // Two engines, same workload, different disciplines: under SJF the short request that
  // arrives with a long one in queue should complete earlier on average.
  auto run = [&](SchedulerOptions::QueueDiscipline discipline) {
    OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
    ServingEngine engine(Tiny(), SmallEngine(), &policy);
    SchedulerOptions options;
    options.max_batch_size = 1;  // Force queueing so the discipline matters.
    options.discipline = discipline;
    ContinuousBatchScheduler scheduler(&engine, options);
    // All arrive at once: one long request then three short ones.
    std::vector<Request> requests{MakeRequest(0, 0.0, 24), MakeRequest(1, 0.0, 2),
                                  MakeRequest(2, 0.0, 2), MakeRequest(3, 0.0, 2)};
    double short_completion_sum = 0.0;
    for (const RequestMetrics& metrics : scheduler.Run(requests)) {
      if (metrics.request_id != 0) {
        short_completion_sum += metrics.completion_time;
      }
    }
    return short_completion_sum;
  };
  EXPECT_LT(run(SchedulerOptions::QueueDiscipline::kShortestJobFirst),
            run(SchedulerOptions::QueueDiscipline::kFcfs));
}

TEST_F(SchedulerTest, StatsAccumulateSensibly) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  ContinuousBatchScheduler scheduler(&engine, SchedulerOptions{});
  std::vector<Request> requests{MakeRequest(0, 0.0, 3), MakeRequest(1, 0.0, 5)};
  scheduler.Run(requests);
  const SchedulerStats& stats = scheduler.stats();
  // Longest member: 1 prefill + 5 decode = 6 iterations (lockstep from t=0).
  EXPECT_EQ(stats.total_iterations, 6u);
  EXPECT_GT(stats.makespan_sec, 0.0);
  EXPECT_GT(stats.Throughput(8), 0.0);
}

// Queue-discipline conservation property: on the same short/long request mix, SJF and FCFS
// must serve exactly the same request set with the same total token work — the discipline
// only permutes admission order — and SJF must not lose on mean completion time (it is
// provably optimal for mean flow time under serial service).
TEST_F(SchedulerTest, QueueDisciplineConservationOnShortLongMix) {
  auto run = [&](SchedulerOptions::QueueDiscipline discipline) {
    OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
    ServingEngine engine(Tiny(), SmallEngine(), &policy);
    SchedulerOptions options;
    options.max_batch_size = 1;  // Serial service: the discipline fully orders the queue.
    options.discipline = discipline;
    ContinuousBatchScheduler scheduler(&engine, options);
    std::vector<Request> requests;
    for (uint64_t i = 0; i < 10; ++i) {
      // Alternating long (24-token) and short (2-token) decodes, all queued at once.
      requests.push_back(MakeRequest(i, 0.0, i % 2 == 0 ? 24 : 2));
    }
    return scheduler.Run(requests);
  };
  const auto sjf = run(SchedulerOptions::QueueDiscipline::kShortestJobFirst);
  const auto fcfs = run(SchedulerOptions::QueueDiscipline::kFcfs);
  ASSERT_EQ(sjf.size(), fcfs.size());

  auto summarize = [](const std::vector<RequestMetrics>& completed) {
    std::set<uint64_t> ids;
    uint64_t tokens = 0;
    double completion_sum = 0.0;
    for (const RequestMetrics& metrics : completed) {
      ids.insert(metrics.request_id);
      tokens += metrics.decode_iterations + 1;
      completion_sum += metrics.completion_time;
    }
    return std::tuple(ids, tokens, completion_sum / static_cast<double>(completed.size()));
  };
  const auto [sjf_ids, sjf_tokens, sjf_mean] = summarize(sjf);
  const auto [fcfs_ids, fcfs_tokens, fcfs_mean] = summarize(fcfs);
  EXPECT_EQ(sjf_ids, fcfs_ids);        // Same served set.
  EXPECT_EQ(sjf_tokens, fcfs_tokens);  // Same total token work.
  EXPECT_LE(sjf_mean, fcfs_mean);      // SJF never worse on mean completion time.
  EXPECT_LT(sjf_mean, fcfs_mean);      // And strictly better on a genuine short/long mix.
}

TEST_F(SchedulerTest, OpenLoopCountersConserve) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  ContinuousBatchScheduler scheduler(&engine, SchedulerOptions{});
  std::vector<Request> requests;
  for (uint64_t i = 0; i < 5; ++i) {
    requests.push_back(MakeRequest(i, 0.0));
  }
  scheduler.Run(requests);
  const SchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.arrived_requests, 5u);
  EXPECT_EQ(stats.admitted_requests, 5u);
  EXPECT_EQ(stats.rejected_requests, 0u);
  EXPECT_EQ(scheduler.controller().kind(), AdmissionPolicyKind::kOpenLoop);
}

// Open loop must ignore every controller knob: a scheduler configured with aggressive
// gradient-style values under the open-loop policy replays the default run exactly.
TEST_F(SchedulerTest, OpenLoopKnobValuesAreInert) {
  auto run = [&](const AdmissionOptions& admission) {
    OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
    ServingEngine engine(Tiny(), SmallEngine(), &policy);
    SchedulerOptions options;
    options.admission = admission;
    ContinuousBatchScheduler scheduler(&engine, options);
    std::vector<Request> requests;
    for (uint64_t i = 0; i < 6; ++i) {
      requests.push_back(MakeRequest(i, 0.005 * static_cast<double>(i), 5));
    }
    return scheduler.Run(requests);
  };
  AdmissionOptions loud;  // Every knob off-default, policy still open loop.
  loud.slo_sec = 0.001;
  loud.window_sec = 0.01;
  loud.update_period_sec = 0.0;
  loud.gain = 0.9;
  const auto base = run(AdmissionOptions{});
  const auto knobbed = run(loud);
  ASSERT_EQ(base.size(), knobbed.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].request_id, knobbed[i].request_id);
    EXPECT_EQ(base[i].completion_time, knobbed[i].completion_time);  // Bitwise equal.
  }
}

TEST_F(SchedulerTest, GradientShedsStaleRequestsAndConserves) {
  ServingEngine engine(Tiny(), SmallEngine(), &policy_);
  SchedulerOptions options;
  options.max_batch_size = 1;
  options.admission.policy = AdmissionPolicyKind::kGradient;
  options.admission.slo_sec = 0.05;  // Tight: a deep simultaneous queue must shed.
  ContinuousBatchScheduler scheduler(&engine, options);
  std::vector<Request> requests;
  for (uint64_t i = 0; i < 24; ++i) {
    requests.push_back(MakeRequest(i, 0.0, 12));
  }
  const auto completed = scheduler.Run(requests);
  const SchedulerStats& stats = scheduler.stats();
  EXPECT_GT(stats.rejected_requests, 0u);
  EXPECT_EQ(stats.arrived_requests, stats.admitted_requests + stats.rejected_requests);
  EXPECT_EQ(stats.served_requests, stats.admitted_requests);
  EXPECT_EQ(completed.size(), stats.served_requests);
  // The controller's own books agree with the scheduler's.
  EXPECT_EQ(scheduler.controller().counters().arrived, stats.arrived_requests);
  EXPECT_EQ(scheduler.controller().counters().admitted, stats.admitted_requests);
  EXPECT_EQ(scheduler.controller().counters().rejected, stats.rejected_requests);
  // Every served request's wait respected the shed threshold.
  for (const RequestMetrics& metrics : completed) {
    EXPECT_LE(metrics.QueueingDelay(),
              options.admission.slo_sec * AdmissionController::kShedFraction + 1e-9);
  }
}

using SchedulerDeathTest = ::testing::Test;

TEST(SchedulerDeathTest, UnsortedArrivalsRejected) {
  OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  ContinuousBatchScheduler scheduler(&engine, SchedulerOptions{});
  std::vector<Request> requests{MakeRequest(0, 5.0), MakeRequest(1, 1.0)};
  EXPECT_DEATH(scheduler.Run(requests), "sorted by arrival");
}

TEST(SchedulerDeathTest, ArrivalsBeforeEngineClockRejected) {
  OnDemandPolicy policy(OnDemandOptions{.expert_agnostic = false});
  ServingEngine engine(Tiny(), SmallEngine(), &policy);
  engine.AdvanceClockTo(10.0);  // As a warmup would.
  ContinuousBatchScheduler scheduler(&engine, SchedulerOptions{});
  std::vector<Request> requests{MakeRequest(0, 1.0), MakeRequest(1, 12.0)};
  EXPECT_DEATH(scheduler.Run(requests), "shift the arrivals by engine.now\\(\\)");
}

TEST(SchedulerFmoeTest, FmoePolicyHandlesContinuousBatching) {
  FmoeOptions options;
  options.store_capacity = 64;
  FmoePolicy policy(Tiny(), 2, options);
  EngineConfig config = SmallEngine();
  config.cache_policy = "fMoE-PriorityLFU";
  ServingEngine engine(Tiny(), config, &policy);
  SchedulerOptions scheduler_options;
  scheduler_options.max_batch_size = 3;
  ContinuousBatchScheduler scheduler(&engine, scheduler_options);
  std::vector<Request> requests;
  for (uint64_t i = 0; i < 12; ++i) {
    requests.push_back(MakeRequest(i, 0.001 * static_cast<double>(i), 6));
  }
  const auto completed = scheduler.Run(requests);
  EXPECT_EQ(completed.size(), 12u);
  EXPECT_GT(policy.store().size(), 0u);
  EXPECT_GT(engine.metrics().HitRate(), 0.0);
}

}  // namespace
}  // namespace fmoe
