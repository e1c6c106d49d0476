// Experiment runs reproducing the paper's evaluation methodology (§6.1). An ExperimentTask
// describes one run as data — which requests arrive, and how they are served — and RunTask
// executes it. The serving discipline is task.mode:
//   * kOffline   — standard 7:3 protocol: history requests warm the policy (expert-map store /
//     EAM) and the cache, then the test requests are served in lockstep batches and measured.
//   * kOnline    — cold start (empty history); arrivals are served one at a time in arrival
//     order, so end-to-end latencies include queueing (§6.3). options.replicas > 1 routes
//     them across that many engines (DESIGN.md §5i).
//   * kScheduled — cold start through the continuous-batching scheduler (task.scheduler).
// Online and scheduled tasks serve task.arrivals when it is set (a loaded trace CSV, a burst
// trace), else a trace generated from (task.trace, task.request_count, options.seed).
// Every figure bench, fmoe_sim and the integration tests run through RunTask; RunOffline and
// RunScheduled are shorthands for the two most common tasks.
#ifndef FMOE_SRC_HARNESS_EXPERIMENT_H_
#define FMOE_SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/tiered_store.h"
#include "src/core/fmoe_policy.h"
#include "src/harness/systems.h"
#include "src/memsim/gpu.h"
#include "src/moe/cost_model.h"
#include "src/moe/gate_simulator.h"
#include "src/oracle/oracle.h"
#include "src/serving/cluster.h"
#include "src/serving/engine.h"
#include "src/serving/metrics.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/workload/workload.h"

namespace fmoe {

class TraceRecorder;

struct ExperimentOptions {
  ModelConfig model;
  DatasetProfile dataset;
  size_t history_requests = 140;
  size_t test_requests = 48;
  int batch_size = 1;
  int prefetch_distance = 3;        // d = 3, the paper's profiled optimum.
  int gpu_count = 6;                // Paper testbed: six RTX 3090s.
  uint64_t cache_bytes = 0;         // Expert-cache budget; 0 => cache_fraction of all experts.
  double cache_fraction = 0.22;
  // Speed cap on generation length; <= 0 keeps the dataset's. Offline only: online and
  // scheduled arrivals take their lengths from the trace (or the caller's list) as given.
  int max_decode_tokens = 48;
  uint64_t seed = 42;
  size_t store_capacity = 512;      // fMoE map-store capacity for experiments.
  bool enable_score_log = false;    // Per-iteration similarity log (Fig. 8).
  bool keep_iteration_records = false;
  // Background matcher-worker model (see EngineConfig): 0 = instantaneous decisions (the
  // historical semantics), 1 = matcher running at the modeled search throughput.
  double matcher_latency_scale = 0.0;
  int matcher_queue_depth = 32;
  // Engine knobs the design-ablation experiments sweep (EngineConfig pass-throughs; the
  // defaults match EngineConfig's, so untouched options change nothing).
  double frequency_decay = 0.6;  // Per-iteration aging of cache hit frequencies.
  PlacementStrategy placement = PlacementStrategy::kRoundRobin;
  // Mixed-precision extension knob (fMoE-family systems only; see FmoeOptions).
  double low_precision_threshold = 0.0;
  // Expert Map Store column precision (fMoE-family systems; DESIGN.md §5g). fp16/int8 trade
  // tolerance-bounded match accuracy for a 2×/4× smaller Fig. 16 store footprint.
  MapPrecision map_precision = MapPrecision::kFp32;
  // Multi-tier store configuration (DESIGN.md §5h). The default (nvme_backing off) replays
  // the legacy two-tier GPU↔host path bit-identically.
  TierConfig tier;
  // fMoE-family tier-aware prefetch: top-N scored-but-not-selected map candidates staged
  // NVMe→host per matched layer. No-op unless tier.nvme_backing is on.
  int host_stage_candidates = 0;
  // Semantic-cluster shard count for the fMoE Expert Map Store (DESIGN.md §5i). 1 replays
  // the unsharded store byte-identically.
  int map_shards = 1;
  // Cluster knobs (kOnline tasks only; DESIGN.md §5i). replicas = 1 serves on one engine, and
  // the router and memory mode are then inert.
  int replicas = 1;
  RouterPolicy router_policy = RouterPolicy::kRoundRobin;
  ClusterMemoryMode cluster_memory = ClusterMemoryMode::kReplicate;
  GateProfile gate;
  HardwareProfile hardware;
  // Optional virtual-time trace recorder (not owned; must outlive the run). Pure observer:
  // attaching one changes nothing about the run. For offline tasks the warmup phase resets it,
  // so the recorded trace covers exactly the measured requests.
  TraceRecorder* trace = nullptr;
  // Clairvoyant oracle (DESIGN.md §5k): record the gate-decision tape and compute the
  // Belady/prefetch-timeline optimality gap into ExperimentResult::oracle. Pure observer —
  // every non-oracle field of the result (and therefore every golden report) is
  // byte-identical whether this is on or off.
  bool oracle = false;
};

struct ExperimentResult {
  std::string system;
  double mean_ttft = 0.0;
  double mean_tpot = 0.0;
  double hit_rate = 0.0;
  double mean_e2e = 0.0;
  uint64_t iterations = 0;
  LatencyBreakdown breakdown;
  DeferredPipelineStats deferred;  // Pub-sub pipeline counters for the measured phase.
  double cache_capacity_gb = 0.0;
  double cache_used_gb = 0.0;  // Residency at the end of the run.
  std::vector<double> request_latencies;  // End-to-end per request (Fig. 10 CDF).
  std::vector<IterationRecord> iteration_records;
  std::vector<FmoePolicy::IterationScoreSample> score_log;
  double mean_semantic_score = 0.0;    // fMoE-family systems only.
  double mean_trajectory_score = 0.0;  // fMoE-family systems only.
  double low_precision_share = 0.0;    // Share of expert servings at reduced precision.
  // Scheduled runs only: continuous-batching counters and the total output
  // tokens of the completed requests (for SchedulerStats::Throughput).
  SchedulerStats scheduler_stats;
  uint64_t scheduled_tokens = 0;
  // Multi-tier runs only (options.tier.nvme_backing): tier movement counters plus host-pool
  // occupancy. tier_enabled is false on legacy two-tier runs (the report omits the block).
  bool tier_enabled = false;
  TierStats tier;
  double host_capacity_gb = 0.0;
  double host_used_gb = 0.0;
  // Online runs: per-replica stats and the aggregate makespan/throughput summary.
  // cluster_enabled is true only with replicas > 1; single-replica runs fill the summary
  // for benches, but the report omits the block.
  bool cluster_enabled = false;
  ClusterSummary cluster;
  // Closed-loop runs only (a non-open-loop task.scheduler.admission on an online or
  // scheduled task): the active policy and the conservation counters, summed over replicas.
  // admission_enabled is false on open-loop runs, so legacy reports stay byte-identical.
  bool admission_enabled = false;
  AdmissionPolicyKind admission_policy = AdmissionPolicyKind::kOpenLoop;
  AdmissionCounters admission;
  // Oracle runs only (options.oracle): the clairvoyant optimality-gap report, merged across
  // replicas on cluster runs. oracle_enabled is false by default, so legacy reports stay
  // byte-identical (the report omits the block).
  bool oracle_enabled = false;
  OracleReport oracle;
};

enum class ExperimentMode { kOffline, kOnline, kScheduled };

struct ExperimentTask {
  std::string system;
  ExperimentOptions options;
  ExperimentMode mode = ExperimentMode::kOffline;
  // Arrivals of online and scheduled tasks: `arrivals` when set (sorted by arrival time and
  // served as given; shared so plan tasks can reuse one list), else `request_count` requests
  // generated from `trace` at options.seed. Offline tasks take neither.
  std::shared_ptr<const std::vector<Request>> arrivals;
  TraceProfile trace;
  size_t request_count = 0;
  // Scheduled tasks: batch limit and queue discipline. Online and scheduled tasks: the
  // admission policy, the only one a run honours (open loop, the default, never sheds). An
  // online task runs one controller per replica: it sees that replica's routed arrivals,
  // sheds them at the door against the SLO, and drives that engine's prefetch distance.
  SchedulerOptions scheduler;
  // Free-form "key=value" labels benches use to locate results in the ordered vector
  // (e.g. "model=Mixtral-8x7B", "system=fMoE", "d=3").
  std::vector<std::string> tags;

  bool HasTag(const std::string& tag) const;
};

// Executes one task. A non-null `trace` is attached to the task's engine (replica 0 of a
// cluster) for the duration of the run. Online request_latencies are in arrival order;
// scheduled ones in completion order. With a shedding admission policy they cover served
// requests only.
ExperimentResult RunTask(const ExperimentTask& task, TraceRecorder* trace = nullptr);

// RunTask of an offline task.
ExperimentResult RunOffline(const std::string& system_name, const ExperimentOptions& options);

// RunTask of a scheduled task over `request_count` generated arrivals.
ExperimentResult RunScheduled(const std::string& system_name, const ExperimentOptions& options,
                              const TraceProfile& trace, size_t request_count,
                              const SchedulerOptions& sched);

// Resolves the cache budget an options struct implies, in bytes.
uint64_t ResolveCacheBytes(const ExperimentOptions& options);

// The engine configuration `options` implies for `spec` (the MakeSystem result for the same
// options), with options.trace attached. Every engine the harness builds starts from it; a
// cluster replica then adjusts its trace prefix and, in partition mode, its cache share.
EngineConfig MakeEngineConfig(const ExperimentOptions& options, const SystemSpec& spec);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_EXPERIMENT_H_
