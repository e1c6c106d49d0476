// Multi-replica cluster suite (DESIGN.md §5i): router policy parsing, routing behaviour per
// policy, router and memory knobs being inert at replicas == 1, and request conservation
// across replicas of an online task.
#include "src/serving/cluster.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/harness/plan.h"
#include "src/harness/report.h"
#include "src/harness/runner.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

TEST(RouterPolicyTest, NamesRoundTripThroughParse) {
  for (const RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSemanticAffinity}) {
    RouterPolicy parsed = RouterPolicy::kRoundRobin;
    ASSERT_TRUE(ParseRouterPolicy(RouterPolicyName(policy), &parsed));
    EXPECT_EQ(policy, parsed);
  }
  RouterPolicy parsed = RouterPolicy::kLeastLoaded;
  EXPECT_FALSE(ParseRouterPolicy("banana", &parsed));
  EXPECT_EQ(RouterPolicy::kLeastLoaded, parsed);  // Untouched on failure.
}

TEST(RouterPolicyTest, MemoryModeNamesRoundTripThroughParse) {
  for (const ClusterMemoryMode mode :
       {ClusterMemoryMode::kReplicate, ClusterMemoryMode::kPartition}) {
    ClusterMemoryMode parsed = ClusterMemoryMode::kReplicate;
    ASSERT_TRUE(ParseClusterMemoryMode(ClusterMemoryModeName(mode), &parsed));
    EXPECT_EQ(mode, parsed);
  }
  ClusterMemoryMode parsed = ClusterMemoryMode::kPartition;
  EXPECT_FALSE(ParseClusterMemoryMode("shared", &parsed));
  EXPECT_EQ(ClusterMemoryMode::kPartition, parsed);
}

Request MakeRequest(uint64_t id) {
  Request request;
  request.id = id;
  request.routing.cluster = static_cast<int>(id % 3);
  request.routing.seed = 100 + id;
  return request;
}

TEST(RequestRouterTest, RoundRobinCyclesInArrivalOrder) {
  ClusterOptions options;
  options.replicas = 3;
  options.router = RouterPolicy::kRoundRobin;
  RequestRouter router(options, 7);
  std::vector<ReplicaLoad> loads(3);
  for (uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(static_cast<int>(i % 3), router.Route(MakeRequest(i), {}, loads));
  }
}

TEST(RequestRouterTest, LeastLoadedPicksEarliestClockLowestIndexTies) {
  ClusterOptions options;
  options.replicas = 3;
  options.router = RouterPolicy::kLeastLoaded;
  RequestRouter router(options, 7);
  std::vector<ReplicaLoad> loads(3);
  loads[0].busy_until = 5.0;
  loads[1].busy_until = 2.0;
  loads[2].busy_until = 9.0;
  EXPECT_EQ(1, router.Route(MakeRequest(0), {}, loads));
  loads[1].busy_until = 5.0;  // Now tied with replica 0: lowest index wins.
  EXPECT_EQ(0, router.Route(MakeRequest(1), {}, loads));
}

TEST(RequestRouterTest, SemanticAffinityIsDeterministicAndEmbeddingDriven) {
  ClusterOptions options;
  options.replicas = 4;
  options.router = RouterPolicy::kSemanticAffinity;
  RequestRouter router(options, 7);
  RequestRouter clone(options, 7);
  std::vector<ReplicaLoad> loads(4);
  const std::vector<double> embedding_a = {0.9, -0.2, 0.4};
  const std::vector<double> embedding_b = {-0.7, 0.6, -0.1};
  const int a = router.Route(MakeRequest(0), embedding_a, loads);
  const int b = router.Route(MakeRequest(1), embedding_b, loads);
  EXPECT_EQ(a, clone.Route(MakeRequest(0), embedding_a, loads));
  EXPECT_EQ(b, clone.Route(MakeRequest(1), embedding_b, loads));
  // Same embedding, different request metadata: routing follows the embedding alone.
  EXPECT_EQ(a, router.Route(MakeRequest(55), embedding_a, loads));
}

TEST(RequestRouterTest, SingleReplicaShortCircuitsToZero) {
  ClusterOptions options;
  options.replicas = 1;
  options.router = RouterPolicy::kSemanticAffinity;
  RequestRouter router(options, 7);
  std::vector<ReplicaLoad> loads(1);
  // No embedding supplied: the R == 1 short-circuit must not require one.
  EXPECT_EQ(0, router.Route(MakeRequest(0), {}, loads));
}

ExperimentOptions SmallOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.test_requests = 16;
  options.max_decode_tokens = 8;
  options.store_capacity = 32;
  return options;
}

TraceProfile FastTrace() {
  TraceProfile trace;
  trace.mean_arrival_rate = 6.0;
  return trace;
}

// Online task over FastTrace() on `options.replicas` engines.
ExperimentResult RunOnlineTask(const ExperimentOptions& options) {
  ExperimentPlan plan;
  plan.AddOnline("fMoE", options, FastTrace(), 16);
  return RunPlan(plan)[0];
}

TEST(RunClusterTest, SingleReplicaRouterAndMemoryKnobsAreInert) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 1;
  const ExperimentResult defaults = RunOnlineTask(options);
  options.router_policy = RouterPolicy::kSemanticAffinity;
  options.cluster_memory = ClusterMemoryMode::kPartition;
  const ExperimentResult knobs = RunOnlineTask(options);
  EXPECT_FALSE(knobs.cluster_enabled);

  std::ostringstream defaults_json;
  std::ostringstream knobs_json;
  WriteResultJson(defaults, /*include_latencies=*/true, defaults_json);
  WriteResultJson(knobs, /*include_latencies=*/true, knobs_json);
  EXPECT_EQ(defaults_json.str(), knobs_json.str());

  // The summary is still filled for benches even though the report omits it.
  EXPECT_EQ(1, knobs.cluster.replicas);
  ASSERT_EQ(1u, knobs.cluster.replica_stats.size());
  EXPECT_EQ(16u, knobs.cluster.replica_stats[0].requests);
  EXPECT_GT(knobs.cluster.makespan, 0.0);
  EXPECT_GT(knobs.cluster.aggregate_throughput_rps, 0.0);
}

TEST(RunClusterTest, RequestsAreConservedAcrossReplicas) {
  for (const RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSemanticAffinity}) {
    ExperimentOptions options = SmallOptions();
    options.replicas = 3;
    options.router_policy = policy;
    const ExperimentResult result = RunOnlineTask(options);
    ASSERT_TRUE(result.cluster_enabled);
    ASSERT_EQ(3u, result.cluster.replica_stats.size());
    size_t total = 0;
    for (const ClusterReplicaStats& stats : result.cluster.replica_stats) {
      total += stats.requests;
      EXPECT_LE(stats.busy_until, result.cluster.makespan);
    }
    EXPECT_EQ(16u, total) << RouterPolicyName(policy);
    EXPECT_EQ(16u, result.request_latencies.size()) << RouterPolicyName(policy);
    for (const double latency : result.request_latencies) {
      EXPECT_GT(latency, 0.0);
    }
  }
}

TEST(RunClusterTest, ClusterRunsAreDeterministic) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 2;
  options.router_policy = RouterPolicy::kSemanticAffinity;
  const ExperimentResult a = RunOnlineTask(options);
  const ExperimentResult b = RunOnlineTask(options);
  std::ostringstream ja;
  std::ostringstream jb;
  WriteResultJson(a, /*include_latencies=*/true, ja);
  WriteResultJson(b, /*include_latencies=*/true, jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(RunClusterTest, PartitionModeShrinksPerReplicaCache) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 4;
  options.cluster_memory = ClusterMemoryMode::kPartition;
  const ExperimentResult partitioned = RunOnlineTask(options);
  options.cluster_memory = ClusterMemoryMode::kReplicate;
  const ExperimentResult replicated = RunOnlineTask(options);
  // Aggregate cache capacity: replicate = R x budget, partition = ~1 x budget.
  EXPECT_GT(replicated.cache_capacity_gb, partitioned.cache_capacity_gb * 2.0);
}

TEST(RunClusterTest, ReportIncludesClusterBlockOnlyWhenEnabled) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 2;
  const ExperimentResult multi = RunOnlineTask(options);
  options.replicas = 1;
  const ExperimentResult single = RunOnlineTask(options);
  std::ostringstream multi_json;
  std::ostringstream single_json;
  WriteResultJson(multi, /*include_latencies=*/false, multi_json);
  WriteResultJson(single, /*include_latencies=*/false, single_json);
  EXPECT_NE(std::string::npos, multi_json.str().find("\"cluster\":"));
  EXPECT_NE(std::string::npos, multi_json.str().find("\"replica_stats\":"));
  EXPECT_EQ(std::string::npos, single_json.str().find("\"cluster\":"));
}

}  // namespace
}  // namespace fmoe
