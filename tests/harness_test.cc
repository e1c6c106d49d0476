// Harness-level behaviour: option plumbing, protocol differences, and determinism of offline
// and online tasks (everything the figure benches rely on but the integration tests do not
// pin explicitly).
#include "src/harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "src/core/map_store_io.h"

namespace fmoe {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.dataset.num_clusters = 8;
  options.history_requests = 24;
  options.test_requests = 8;
  options.max_decode_tokens = 10;
  options.store_capacity = 64;
  options.prefetch_distance = 2;
  options.gpu_count = 2;
  return options;
}

ExperimentResult RunOnlineTask(const std::string& system, const ExperimentOptions& options,
                               const TraceProfile& trace, size_t request_count) {
  ExperimentTask task;
  task.system = system;
  task.options = options;
  task.mode = ExperimentMode::kOnline;
  task.trace = trace;
  task.request_count = request_count;
  return RunTask(task);
}

TEST(HarnessTest, OnlineRunsAreDeterministic) {
  const ExperimentOptions options = TinyOptions();
  TraceProfile trace;
  trace.mean_arrival_rate = 3.0;
  const ExperimentResult a = RunOnlineTask("fMoE", options, trace, 12);
  const ExperimentResult b = RunOnlineTask("fMoE", options, trace, 12);
  EXPECT_DOUBLE_EQ(a.mean_e2e, b.mean_e2e);
  EXPECT_EQ(a.request_latencies, b.request_latencies);
}

TEST(HarnessTest, OnlineUsesTraceLengthsNotDatasetCaps) {
  // The trace overrides request lengths (§6.3: requests generate exactly the trace's tokens),
  // so iterations reflect trace.max_decode_tokens rather than options.max_decode_tokens.
  ExperimentOptions options = TinyOptions();
  options.max_decode_tokens = 4;
  TraceProfile trace;
  trace.mean_arrival_rate = 5.0;
  trace.min_decode_tokens = 16;
  trace.max_decode_tokens = 16;
  const ExperimentResult result = RunOnlineTask("fMoE", options, trace, 4);
  // 4 requests x (1 prefill + 16 decode) iterations.
  EXPECT_EQ(result.iterations, 4u * 17u);
}

TEST(HarnessTest, SingleReplicaOnlineHonoursAdmission) {
  // Online admission is shed-or-serve at the engine's door: with arrivals far above the
  // service rate and a 1 ms SLO, queued requests blow their wait budget and are shed, even
  // on one engine.
  ExperimentTask task;
  task.system = "fMoE";
  task.options = TinyOptions();
  task.mode = ExperimentMode::kOnline;
  task.trace.mean_arrival_rate = 200.0;
  task.request_count = 12;
  task.scheduler.admission.policy = AdmissionPolicyKind::kGradient;
  task.scheduler.admission.slo_sec = 0.001;
  const ExperimentResult result = RunTask(task);
  EXPECT_TRUE(result.admission_enabled);
  EXPECT_EQ(result.admission_policy, AdmissionPolicyKind::kGradient);
  EXPECT_EQ(result.admission.arrived, 12u);
  EXPECT_GT(result.admission.rejected, 0u);
  EXPECT_EQ(result.admission.admitted + result.admission.rejected, result.admission.arrived);
  EXPECT_EQ(result.request_latencies.size(), result.admission.admitted);
  EXPECT_FALSE(result.cluster_enabled);
}

TEST(HarnessTest, CacheBytesOverrideReachesEngine) {
  ExperimentOptions options = TinyOptions();
  options.cache_bytes = TinyTestConfig().expert_bytes * 5;
  const ExperimentResult result = RunOffline("fMoE", options);
  EXPECT_NEAR(result.cache_capacity_gb,
              static_cast<double>(options.cache_bytes) / (1 << 30), 1e-12);
}

TEST(HarnessTest, GpuCountChangesTimingButNotRouting) {
  ExperimentOptions two = TinyOptions();
  ExperimentOptions six = TinyOptions();
  six.gpu_count = 6;
  const ExperimentResult slow = RunOffline("DeepSpeed-Inference", two);
  const ExperimentResult fast = RunOffline("DeepSpeed-Inference", six);
  // More links = faster (tiny model has 6 experts/layer: 6 links fully parallelise a layer).
  EXPECT_LT(fast.mean_tpot, slow.mean_tpot);
  // Routing (and thus activation counts) is placement-independent.
  EXPECT_EQ(slow.iterations, fast.iterations);
}

TEST(HarnessTest, PreloadAllIgnoresCacheBudget) {
  ExperimentOptions options = TinyOptions();
  options.cache_fraction = 0.1;  // Would be far too small for all experts...
  const ExperimentResult result = RunOffline("No-offload", options);
  // ...but No-offload sizes the cache to fit everything regardless.
  EXPECT_DOUBLE_EQ(result.hit_rate, 1.0);
  EXPECT_NEAR(result.cache_used_gb,
              static_cast<double>(TinyTestConfig().total_expert_bytes()) / (1 << 30), 1e-9);
}

TEST(HarnessTest, IterationRecordsOnlyKeptWhenRequested) {
  ExperimentOptions options = TinyOptions();
  const ExperimentResult without = RunOffline("fMoE", options);
  EXPECT_TRUE(without.iteration_records.empty());
  options.keep_iteration_records = true;
  const ExperimentResult with = RunOffline("fMoE", options);
  EXPECT_EQ(with.iteration_records.size(), with.iterations);
}

TEST(HarnessTest, ScoreLogOnlyForFmoeFamily) {
  ExperimentOptions options = TinyOptions();
  options.enable_score_log = true;
  const ExperimentResult fmoe = RunOffline("fMoE", options);
  EXPECT_FALSE(fmoe.score_log.empty());
  const ExperimentResult eam = RunOffline("MoE-Infinity", options);
  EXPECT_TRUE(eam.score_log.empty());
  EXPECT_DOUBLE_EQ(eam.mean_semantic_score, 0.0);
}

TEST(HarnessTest, StoreCapacityOptionBoundsFmoeStore) {
  ExperimentOptions options = TinyOptions();
  options.store_capacity = 16;
  // Indirect check: the run completes and similarity scores are produced from a tiny store.
  const ExperimentResult result = RunOffline("fMoE", options);
  EXPECT_GT(result.mean_trajectory_score, 0.0);
}

TEST(HarnessTest, RequestLatencyCountMatchesTestRequests) {
  const ExperimentOptions options = TinyOptions();
  const ExperimentResult result = RunOffline("fMoE", options);
  EXPECT_EQ(result.request_latencies.size(), options.test_requests);
}

TEST(HarnessTest, SeedChangesWorkloadButKeepsDeterminism) {
  ExperimentOptions a = TinyOptions();
  ExperimentOptions b = TinyOptions();
  b.seed = 777;
  const ExperimentResult ra = RunOffline("fMoE", a);
  const ExperimentResult rb = RunOffline("fMoE", b);
  EXPECT_NE(ra.mean_tpot, rb.mean_tpot);  // Different workload.
  const ExperimentResult rb2 = RunOffline("fMoE", b);
  EXPECT_DOUBLE_EQ(rb.mean_tpot, rb2.mean_tpot);  // Same seed reproduces.
}

// fmoe_sim --save-store builds its export engine from the same MakeSystem arguments and
// MakeEngineConfig as every harness run, so --map-shards reaches the saved file.
TEST(FmoeSimSaveStoreTest, MapShardsWritesAShardedFileThatReloads) {
  const std::string store_path = testing::TempDir() + "fmoe_sim_map_shards4.store";
  const std::string log_path = testing::TempDir() + "fmoe_sim_map_shards4.log";
  const std::string command = std::string(FMOE_SIM_BINARY) +
                              " --model tiny --history 12 --requests 2 --max-decode 8"
                              " --store-capacity 64 --map-shards 4 --save-store " +
                              store_path + " > /dev/null 2> " + log_path;
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  std::ifstream file(store_path, std::ios::binary);
  char magic[8] = {};
  ASSERT_TRUE(file.read(magic, sizeof(magic)));
  EXPECT_EQ(std::string(magic, sizeof(magic)), "FMOESHRD");

  std::ifstream log(log_path);
  const std::string text((std::istreambuf_iterator<char>(log)), std::istreambuf_iterator<char>());
  const size_t at = text.find("saved ");
  ASSERT_NE(at, std::string::npos) << text;
  size_t saved = 0;
  ASSERT_EQ(std::sscanf(text.c_str() + at, "saved %zu expert maps", &saved), 1) << text;
  EXPECT_GT(saved, 0u);

  ShardedMapStore store(TinyTestConfig(), 64, 3, StoreDedupPolicy::kRedundancy,
                        MapPrecision::kFp32, 4, kSemanticRouterSeed);
  const StoreIoResult loaded = LoadStoreFromFile(store_path, &store);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.records, saved);
  EXPECT_EQ(store.size(), saved);
  std::remove(store_path.c_str());
  std::remove(log_path.c_str());
}

// Bad flag values are rejected before anything runs: an "error:" line and exit status 1, not
// a failed check. `--host-policy` is validated even when no host pool is configured, and an
// integer flag is range-checked before it is narrowed (4294967297 is 1 as a 32-bit int).
TEST(FmoeSimFlagsTest, BadValuesExitOneWithAnError) {
  const std::string log_path = testing::TempDir() + "fmoe_sim_bad_flag.log";
  for (const char* bad : {"--system bogus", "--host-policy lru", "--gpus 0", "--distance 0",
                          "--host-policy bogus --nvme-backing", "--matcher-queue-depth 0",
                          "--history -1", "--mode scheduled --admission-window-s 0",
                          "--mode scheduled --admission-policy gradient --admission-gain 1.5",
                          "--mode scheduled --admission-policy gradient --admission-window-s 0",
                          "--mode scheduled --admission-policy gradient --admission-update-s -1",
                          "--requests -1", "--gpus 4294967297", "--store-capacity 0",
                          "--store-capacity -1", "--nvme-backing --nvme-gbps 0",
                          "--nvme-latency-us -1", "--matcher-latency-scale -1", "--cache-gb -1",
                          "--cache-fraction -1", "--host-capacity-gb -1"}) {
    const std::string command = std::string(FMOE_SIM_BINARY) + " --model tiny " + bad +
                                " > /dev/null 2> " + log_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
    std::ifstream log(log_path);
    const std::string text((std::istreambuf_iterator<char>(log)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text.rfind("error: ", 0), 0u) << command << "\n" << text;
  }
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace fmoe
