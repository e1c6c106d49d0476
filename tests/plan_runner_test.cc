// Plan builder and parallel runner: declaration-order indexing, tag bookkeeping, the
// seed-derivation rule, and the determinism contract — RunPlan's result vector is bitwise
// identical no matter how many worker threads execute it (DESIGN.md §5e).
#include "src/harness/plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>

#include "src/harness/report.h"
#include "src/harness/runner.h"

namespace fmoe {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.dataset.num_clusters = 8;
  options.history_requests = 16;
  options.test_requests = 6;
  options.max_decode_tokens = 8;
  options.store_capacity = 64;
  options.prefetch_distance = 2;
  options.gpu_count = 2;
  return options;
}

TraceProfile TinyTrace() {
  TraceProfile trace;
  trace.mean_arrival_rate = 3.0;
  trace.max_decode_tokens = 8;
  return trace;
}

// The requests a TinyOptions()/TinyTrace() task generates, as a caller-supplied list.
std::shared_ptr<const std::vector<Request>> TinyArrivals(size_t count) {
  return std::make_shared<const std::vector<Request>>(
      TraceGenerator(TinyTrace(), TinyOptions().dataset, TinyOptions().seed).Generate(count));
}

// A plan exercising all three modes, a two-replica online task, and tasks sharing one
// caller-supplied arrival list, with heterogeneous per-task cost so parallel execution
// actually interleaves completions out of plan order.
ExperimentPlan MixedPlan() {
  ExperimentPlan plan(/*plan_seed=*/7);
  plan.AddOffline("fMoE", TinyOptions(), {"kind=offline"});
  plan.AddOffline("MoE-Infinity", TinyOptions(), {"kind=offline"});
  plan.AddOnline("fMoE", TinyOptions(), TinyTrace(), 8, {"kind=online"});
  ExperimentOptions big = TinyOptions();
  big.test_requests = 12;
  plan.AddOffline("DeepSpeed-Inference", big, {"kind=offline"});
  SchedulerOptions sched;
  sched.max_batch_size = 2;
  plan.AddScheduled("fMoE", TinyOptions(), TinyTrace(), 8, sched, {"kind=scheduled"});
  ExperimentOptions cluster = TinyOptions();
  cluster.replicas = 2;
  cluster.router_policy = RouterPolicy::kSemanticAffinity;
  plan.AddOnline("fMoE", cluster, TinyTrace(), 8, {"kind=cluster"});
  const auto arrivals = TinyArrivals(8);
  for (const ExperimentMode mode : {ExperimentMode::kOnline, ExperimentMode::kScheduled}) {
    ExperimentTask task;
    task.system = "ProMoE";
    task.options = TinyOptions();
    task.mode = mode;
    task.arrivals = arrivals;
    task.scheduler = sched;
    task.tags = {"kind=arrivals"};
    plan.Add(std::move(task));
  }
  return plan;
}

TEST(ExperimentPlanTest, AddReturnsDeclarationOrderIndices) {
  ExperimentPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.AddOffline("fMoE", TinyOptions()), 0u);
  EXPECT_EQ(plan.AddOnline("fMoE", TinyOptions(), TinyTrace(), 4), 1u);
  EXPECT_EQ(plan.AddOffline("ProMoE", TinyOptions()), 2u);
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.tasks()[0].mode, ExperimentMode::kOffline);
  EXPECT_EQ(plan.tasks()[1].mode, ExperimentMode::kOnline);
  EXPECT_EQ(plan.tasks()[2].system, "ProMoE");
}

TEST(ExperimentPlanTest, CrossProductIsRowMajorAndTagged) {
  ExperimentPlan plan;
  const std::vector<ModelConfig> models{TinyTestConfig()};
  const std::vector<DatasetProfile> datasets{LmsysLikeProfile(), ShareGptLikeProfile()};
  const std::vector<std::string> systems{"fMoE", "MoE-Infinity"};
  const std::vector<size_t> indices = plan.AddOfflineCross(
      models, datasets, systems,
      [&](const ModelConfig& model, const DatasetProfile& dataset) {
        ExperimentOptions options = TinyOptions();
        options.model = model;
        options.dataset = dataset;
        return options;
      });
  ASSERT_EQ(indices.size(), 4u);
  EXPECT_EQ(indices, (std::vector<size_t>{0, 1, 2, 3}));
  // Row-major: dataset outer, system inner (single model).
  EXPECT_TRUE(plan.tasks()[0].HasTag("dataset=" + datasets[0].name));
  EXPECT_TRUE(plan.tasks()[0].HasTag("system=fMoE"));
  EXPECT_TRUE(plan.tasks()[1].HasTag("dataset=" + datasets[0].name));
  EXPECT_TRUE(plan.tasks()[1].HasTag("system=MoE-Infinity"));
  EXPECT_TRUE(plan.tasks()[2].HasTag("dataset=" + datasets[1].name));
  EXPECT_TRUE(plan.tasks()[3].HasTag("system=MoE-Infinity"));
  EXPECT_EQ(plan.IndicesWithTag("system=fMoE"), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(plan.IndicesWithTag("model=" + models[0].name).size(), 4u);
}

TEST(ExperimentPlanTest, SweepAppliesMutationPerValueInOrder) {
  ExperimentPlan plan;
  const std::vector<int> distances{1, 3, 5};
  const std::vector<size_t> indices = plan.AddOfflineSweep(
      "fMoE", TinyOptions(), distances,
      [](ExperimentOptions& options, int d) { options.prefetch_distance = d; }, "d");
  ASSERT_EQ(indices.size(), 3u);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(plan.tasks()[indices[i]].options.prefetch_distance, distances[i]);
    EXPECT_TRUE(plan.tasks()[indices[i]].HasTag("d=" + std::to_string(i)));
    EXPECT_TRUE(plan.tasks()[indices[i]].HasTag("system=fMoE"));
  }
}

TEST(ExperimentPlanTest, ExplicitSeedsAreLeftAlone) {
  ExperimentPlan plan(/*plan_seed=*/99);
  ExperimentOptions options = TinyOptions();
  options.seed = 1234;
  plan.AddOffline("fMoE", options);
  EXPECT_EQ(plan.tasks()[0].options.seed, 1234u);
}

TEST(ExperimentPlanTest, SentinelSeedsDeriveFromPlanSeedAndIndexOnly) {
  ExperimentPlan plan(/*plan_seed=*/99);
  for (int i = 0; i < 3; ++i) {
    ExperimentOptions options = TinyOptions();
    options.seed = kSeedFromPlan;
    plan.AddOffline("fMoE", options);
  }
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < plan.size(); ++i) {
    const uint64_t seed = plan.tasks()[i].options.seed;
    EXPECT_NE(seed, kSeedFromPlan);
    EXPECT_EQ(seed, ExperimentPlan::DeriveTaskSeed(99, i));
    seeds.insert(seed);
  }
  // Sibling tasks get decorrelated streams.
  EXPECT_EQ(seeds.size(), 3u);
  // The rule is a pure function of (plan_seed, index): same inputs, same seed, and either
  // input changing changes the result.
  EXPECT_EQ(ExperimentPlan::DeriveTaskSeed(99, 1), ExperimentPlan::DeriveTaskSeed(99, 1));
  EXPECT_NE(ExperimentPlan::DeriveTaskSeed(99, 1), ExperimentPlan::DeriveTaskSeed(99, 2));
  EXPECT_NE(ExperimentPlan::DeriveTaskSeed(99, 1), ExperimentPlan::DeriveTaskSeed(100, 1));
}

void ExpectBitwiseEqual(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.system, b.system);
  // Exact (bitwise) equality on every metric field: determinism means identical doubles, not
  // merely close ones.
  EXPECT_EQ(a.mean_ttft, b.mean_ttft);
  EXPECT_EQ(a.mean_tpot, b.mean_tpot);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.mean_e2e, b.mean_e2e);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.cache_capacity_gb, b.cache_capacity_gb);
  EXPECT_EQ(a.cache_used_gb, b.cache_used_gb);
  EXPECT_EQ(a.mean_semantic_score, b.mean_semantic_score);
  EXPECT_EQ(a.mean_trajectory_score, b.mean_trajectory_score);
  EXPECT_EQ(a.low_precision_share, b.low_precision_share);
  EXPECT_EQ(a.request_latencies, b.request_latencies);
  EXPECT_EQ(a.scheduled_tokens, b.scheduled_tokens);
  EXPECT_EQ(a.scheduler_stats.mean_batch_occupancy, b.scheduler_stats.mean_batch_occupancy);
  EXPECT_EQ(a.breakdown.TotalIteration(), b.breakdown.TotalIteration());
  EXPECT_EQ(a.deferred.applied, b.deferred.applied);
  EXPECT_EQ(a.deferred.superseded, b.deferred.superseded);
}

TEST(RunnerTest, ResultsComeBackInPlanOrder) {
  const ExperimentPlan plan = MixedPlan();
  const std::vector<ExperimentResult> results = RunPlan(plan);
  ASSERT_EQ(results.size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(results[i].system, plan.tasks()[i].system) << "slot " << i;
  }
}

TEST(RunnerTest, ParallelRunMatchesSerialRunBitwise) {
  const ExperimentPlan plan = MixedPlan();
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  const std::vector<ExperimentResult> a = RunPlan(plan, serial);
  const std::vector<ExperimentResult> b = RunPlan(plan, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    ExpectBitwiseEqual(a[i], b[i]);
  }
}

TEST(RunnerTest, RunTaskMatchesDirectHarnessCalls) {
  ExperimentTask task;
  task.system = "fMoE";
  task.options = TinyOptions();
  const ExperimentResult via_runner = RunTask(task);
  const ExperimentResult direct = RunOffline("fMoE", TinyOptions());
  ExpectBitwiseEqual(via_runner, direct);
}

std::string ReportJson(const ExperimentResult& result) {
  std::ostringstream out;
  WriteResultJson(result, /*include_latencies=*/true, out);
  return out.str();
}

// A caller-supplied arrival list replaces the task's trace and request_count: handing a
// scheduled task the very requests its trace would generate reproduces the report.
TEST(RunnerTest, ScheduledCallerArrivalsMatchGeneratedTrace) {
  SchedulerOptions sched;
  sched.max_batch_size = 2;
  ExperimentTask task;
  task.system = "fMoE";
  task.options = TinyOptions();
  task.mode = ExperimentMode::kScheduled;
  task.arrivals = TinyArrivals(8);
  task.scheduler = sched;
  const ExperimentResult caller = RunTask(task);
  EXPECT_EQ(caller.scheduler_stats.arrived_requests, 8u);
  EXPECT_EQ(ReportJson(caller),
            ReportJson(RunScheduled("fMoE", TinyOptions(), TinyTrace(), 8, sched)));
}

// The same for online tasks, on one engine and routed across two.
TEST(RunnerTest, OnlineCallerArrivalsMatchGeneratedTrace) {
  for (const int replicas : {1, 2}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    ExperimentOptions options = TinyOptions();
    options.replicas = replicas;
    ExperimentPlan plan;
    const size_t generated = plan.AddOnline("fMoE", options, TinyTrace(), 8);
    ExperimentTask task = plan.tasks()[generated];
    task.arrivals = TinyArrivals(8);
    task.trace = TraceProfile{};
    task.request_count = 0;
    plan.Add(std::move(task));
    const std::vector<ExperimentResult> results = RunPlan(plan);
    EXPECT_EQ(results[1].request_latencies.size(), 8u);
    EXPECT_EQ(ReportJson(results[1]), ReportJson(results[0]));
  }
}

TEST(RunnerTest, ProgressCallbackFiresOncePerTask) {
  const ExperimentPlan plan = MixedPlan();
  RunnerOptions options;
  options.jobs = 2;
  std::atomic<size_t> calls{0};
  std::vector<std::atomic<int>> per_task(plan.size());
  RunPlan(plan, options, [&](size_t index) {
    calls.fetch_add(1);
    per_task[index].fetch_add(1);
  });
  EXPECT_EQ(calls.load(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(per_task[i].load(), 1) << "task " << i;
  }
}

// The observed driver: --oracle turns the recorder on for every task without moving any other
// result field, the gap table follows the render, and --oracle_out holds WriteOracleJson's
// document for the same run.
TEST(ObservedRunTest, OracleCoversEveryTaskAndFollowsRender) {
  ExperimentPlan plan;
  plan.AddOffline("fMoE", TinyOptions(), {"kind=a"});
  plan.AddOffline("MoE-Infinity", TinyOptions(), {"kind=b"});
  ObservedRunOptions options;
  options.jobs = 2;
  options.oracle = true;
  options.oracle_out = testing::TempDir() + "/fmoe_observed_run_oracle.json";
  std::ostringstream out;
  const auto results = RunObservedPlan(plan, options, "observed_test", out,
                                       [&](const std::vector<ExperimentResult>& ordered) {
                                         out << "rendered " << ordered.size() << "\n";
                                       });
  ASSERT_TRUE(results.has_value());
  const std::vector<ExperimentResult> plain = RunPlan(plan);
  ASSERT_EQ(results->size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_TRUE((*results)[i].oracle_enabled);
    EXPECT_FALSE(plain[i].oracle_enabled);
    ExpectBitwiseEqual((*results)[i], plain[i]);
  }
  const std::string text = out.str();
  EXPECT_EQ(text.rfind("rendered 2\n", 0), 0u);
  EXPECT_NE(text.find("Clairvoyant optimality gap"), std::string::npos);
  EXPECT_NE(text.find("1 kind=b"), std::string::npos);

  std::ostringstream expected;
  WriteOracleJson(plan, *results, "observed_test", expected);
  std::ifstream file(options.oracle_out);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(file), {}), expected.str());
}

TEST(ObservedRunTest, TraceTaskOutsidePlanFailsWithoutRunning) {
  ExperimentPlan plan;
  plan.AddOffline("fMoE", TinyOptions());
  ObservedRunOptions options;
  options.trace_out = testing::TempDir() + "/fmoe_observed_run_trace.json";
  bool rendered = false;
  std::ostringstream out;
  for (const int64_t task : {int64_t{-1}, int64_t{1}}) {
    options.trace_task = task;
    EXPECT_FALSE(RunObservedPlan(plan, options, "observed_test", out,
                                 [&](const std::vector<ExperimentResult>&) { rendered = true; })
                     .has_value());
  }
  EXPECT_FALSE(rendered);
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
}  // namespace fmoe
