#include "src/harness/experiment.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "src/serving/engine.h"
#include "src/util/logging.h"

namespace fmoe {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// One serving engine and everything it points at. The engine is declared last, so it is
// destroyed before its policy, oracle tape and admission controller.
struct Replica {
  SystemSpec spec;
  std::unique_ptr<GateDecisionRecorder> tape;       // options.oracle only.
  std::unique_ptr<AdmissionController> controller;  // Closed-loop online runs only.
  std::unique_ptr<ServingEngine> engine;
};

// Builds replica `index` of `count`: the system's policy, its engine and, with
// options.oracle, the gate-decision tape (attached before any warmup, whose metrics reset
// clears it, so it covers exactly the measured requests). A replica of a cluster (count > 1)
// prefixes its trace tracks, leaves tracing to replica 0 (one timeline per recorder), and in
// partition mode takes its share of the cache budget.
Replica MakeReplica(const ExperimentTask& task, int index, int count) {
  const ExperimentOptions& options = task.options;
  Replica replica;
  replica.spec = MakeSystem(task.system, options.model, options.prefetch_distance,
                            options.store_capacity, options.low_precision_threshold,
                            options.map_precision, options.host_stage_candidates,
                            options.map_shards);
  EngineConfig config = MakeEngineConfig(options, replica.spec);
  if (count > 1) {
    config.trace_track_prefix = "replica" + std::to_string(index) + "/";
    if (index > 0) {
      config.trace = nullptr;
    }
    if (options.cluster_memory == ClusterMemoryMode::kPartition && !replica.spec.preload_all) {
      config.expert_cache_bytes =
          std::max<uint64_t>(config.expert_cache_bytes / static_cast<uint64_t>(count), 1);
    }
  }
  replica.engine =
      std::make_unique<ServingEngine>(options.model, config, replica.spec.policy.get());
  if (options.oracle) {
    replica.tape = std::make_unique<GateDecisionRecorder>();
    replica.engine->SetOracleRecorder(replica.tape.get());
  }
  return replica;
}

// One engine's view of the run; the clairvoyant replay of its tape runs here, after the
// engine has finished the window.
ExperimentResult FillResult(const ExperimentTask& task, const Replica& replica) {
  const ExperimentOptions& options = task.options;
  const ServingEngine& engine = *replica.engine;
  const RunMetrics& metrics = engine.metrics();
  ExperimentResult result;
  result.system = task.system;
  result.mean_ttft = metrics.MeanTtft();
  result.mean_tpot = metrics.MeanTpot();
  result.hit_rate = metrics.HitRate();
  result.mean_e2e = metrics.MeanEndToEnd();
  result.iterations = metrics.iterations();
  result.breakdown = metrics.breakdown();
  result.deferred = metrics.deferred();
  result.cache_capacity_gb = static_cast<double>(engine.cache().capacity_bytes()) / kGiB;
  result.cache_used_gb = static_cast<double>(engine.cache().used_bytes()) / kGiB;
  result.request_latencies = metrics.EndToEndLatencies();
  result.low_precision_share = metrics.LowPrecisionShare();
  if (engine.store().enabled()) {
    result.tier_enabled = true;
    result.tier = engine.store().stats();
    result.host_capacity_gb = static_cast<double>(engine.store().host().capacity_bytes()) / kGiB;
    result.host_used_gb = static_cast<double>(engine.store().host().used_bytes()) / kGiB;
  }
  if (options.keep_iteration_records) {
    result.iteration_records = metrics.iteration_records();
  }
  if (const auto* fmoe_policy = dynamic_cast<const FmoePolicy*>(replica.spec.policy.get())) {
    result.mean_semantic_score = fmoe_policy->MeanSemanticScore();
    result.mean_trajectory_score = fmoe_policy->MeanTrajectoryScore();
    if (options.enable_score_log) {
      result.score_log = fmoe_policy->score_log();
    }
  }
  if (replica.tape != nullptr) {
    result.oracle_enabled = true;
    OracleConfig oracle_config;
    oracle_config.expert_bytes = options.model.expert_bytes;
    oracle_config.link = engine.config().gpu.link;
    result.oracle =
        ComputeOracleReport(*replica.tape, oracle_config, metrics.breakdown().demand_stall);
  }
  return result;
}

// Merges the replicas' results: arrival-order latencies (`assignment[i]` is the replica that
// served arrival i, -1 if it was shed; each replica served its subset in arrival order),
// counter sums and count-weighted means. One replica's result is returned as is, so a
// single-engine run reports exactly that engine's numbers. Tier stats, iteration records and
// score logs are per-engine and not merged.
ExperimentResult MergeReplicas(const ExperimentTask& task, const std::vector<Replica>& replicas,
                               const std::vector<int>& assignment) {
  std::vector<ExperimentResult> parts;
  parts.reserve(replicas.size());
  for (const Replica& replica : replicas) {
    parts.push_back(FillResult(task, replica));
  }
  if (parts.size() == 1) {
    return std::move(parts[0]);
  }
  ExperimentResult result;
  result.system = task.system;
  double ttft_weighted = 0.0;
  double tpot_weighted = 0.0;
  double e2e_sum = 0.0;
  uint64_t hits = 0;
  uint64_t servings = 0;
  size_t served = 0;
  double semantic_weighted = 0.0;
  double trajectory_weighted = 0.0;
  double low_precision_weighted = 0.0;
  for (size_t r = 0; r < parts.size(); ++r) {
    const ExperimentResult& part = parts[r];
    const RunMetrics& metrics = replicas[r].engine->metrics();
    const auto iterations = static_cast<double>(part.iterations);
    const uint64_t replica_servings = metrics.expert_hits() + metrics.expert_misses();
    ttft_weighted += part.mean_ttft * static_cast<double>(metrics.requests().size());
    tpot_weighted += part.mean_tpot * iterations;
    for (const double latency : part.request_latencies) {
      e2e_sum += latency;
    }
    hits += metrics.expert_hits();
    servings += replica_servings;
    served += metrics.requests().size();
    result.iterations += part.iterations;
    result.breakdown.Accumulate(part.breakdown);
    result.deferred.Accumulate(part.deferred);
    result.cache_capacity_gb += part.cache_capacity_gb;
    result.cache_used_gb += part.cache_used_gb;
    semantic_weighted += part.mean_semantic_score * iterations;
    trajectory_weighted += part.mean_trajectory_score * iterations;
    low_precision_weighted += part.low_precision_share * static_cast<double>(replica_servings);
    if (part.oracle_enabled) {
      // Each replica's tape replayed against its own cache and links; the merged block sums
      // the counters and recomputes the gaps over the whole cluster.
      result.oracle_enabled = true;
      AccumulateOracleReport(&result.oracle, part.oracle);
    }
  }
  std::vector<size_t> cursor(parts.size(), 0);
  for (const int r : assignment) {
    if (r < 0) {
      continue;  // Shed before service: contributes a rejection, not a latency.
    }
    const std::vector<double>& latencies = parts[static_cast<size_t>(r)].request_latencies;
    size_t& next = cursor[static_cast<size_t>(r)];
    FMOE_CHECK(next < latencies.size());
    result.request_latencies.push_back(latencies[next++]);
  }
  const auto per = [](double sum, double count) { return count == 0.0 ? 0.0 : sum / count; };
  const auto total_iterations = static_cast<double>(result.iterations);
  result.mean_ttft = per(ttft_weighted, static_cast<double>(served));
  result.mean_tpot = per(tpot_weighted, total_iterations);
  result.mean_e2e = per(e2e_sum, static_cast<double>(served));
  result.hit_rate = per(static_cast<double>(hits), static_cast<double>(servings));
  result.low_precision_share = per(low_precision_weighted, static_cast<double>(servings));
  result.mean_semantic_score = per(semantic_weighted, total_iterations);
  result.mean_trajectory_score = per(trajectory_weighted, total_iterations);
  return result;
}

// Offline protocol: warm on the history split, then serve the test split in lockstep batches.
ExperimentResult ServeOffline(const ExperimentTask& task) {
  const ExperimentOptions& options = task.options;
  DatasetProfile dataset = options.dataset;
  if (options.max_decode_tokens > 0) {
    dataset.max_decode_tokens = options.max_decode_tokens;
  }
  WorkloadGenerator generator(dataset, options.seed);
  const size_t total = options.history_requests + options.test_requests;
  WorkloadSplit split =
      SplitWorkload(generator.Generate(total), static_cast<double>(options.history_requests) /
                                                   static_cast<double>(total));

  Replica replica = MakeReplica(task, 0, 1);
  ServingEngine& engine = *replica.engine;
  engine.WarmupWithHistory(split.history);
  if (auto* fmoe_policy = dynamic_cast<FmoePolicy*>(replica.spec.policy.get());
      fmoe_policy != nullptr && options.enable_score_log) {
    fmoe_policy->EnableScoreLog();
  }
  const auto batch = static_cast<size_t>(std::max(options.batch_size, 1));
  for (size_t i = 0; i < split.test.size(); i += batch) {
    const size_t count = std::min(batch, split.test.size() - i);
    engine.ServeBatch(std::span<const Request>(split.test.data() + i, count));
  }
  return FillResult(task, replica);
}

// Online protocol: serves the arrivals one at a time, in order, on options.replicas engines.
// The router picks each arrival's engine (always the one at R = 1). A closed-loop admission
// policy gives every replica a controller that sees only its routed arrivals; the only
// admission decision here is shed-or-serve against the wait already accrued (batch limits
// belong to the scheduled protocol).
ExperimentResult ServeInOrder(const ExperimentTask& task, const std::vector<Request>& arrivals) {
  const ExperimentOptions& options = task.options;
  const AdmissionOptions& admission = task.scheduler.admission;
  const bool closed_loop = admission.policy != AdmissionPolicyKind::kOpenLoop;
  const int count = std::max(options.replicas, 1);
  std::vector<Replica> replicas;
  replicas.reserve(static_cast<size_t>(count));
  for (int r = 0; r < count; ++r) {
    replicas.push_back(MakeReplica(task, r, count));
    if (closed_loop) {
      replicas.back().controller = std::make_unique<AdmissionController>(admission);
      replicas.back().engine->SetAdmissionController(replicas.back().controller.get());
    }
  }

  ClusterOptions cluster_options;
  cluster_options.replicas = count;
  cluster_options.router = options.router_policy;
  cluster_options.memory = options.cluster_memory;
  RequestRouter router(cluster_options, options.seed ^ kSemanticRouterSeed);
  std::vector<ReplicaLoad> loads(static_cast<size_t>(count));
  std::vector<int> assignment(arrivals.size(), -1);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Request& request = arrivals[i];
    std::vector<double> prompt_embedding;
    if (count > 1 && options.router_policy == RouterPolicy::kSemanticAffinity) {
      prompt_embedding = replicas[0].engine->embedder().PromptEmbedding(request.routing);
    }
    const int r = router.Route(request, prompt_embedding, loads);
    const auto slot = static_cast<size_t>(r);
    ServingEngine& engine = *replicas[slot].engine;
    AdmissionController* controller = replicas[slot].controller.get();
    if (controller != nullptr) {
      controller->OnArrived();
      const double now = std::max(engine.now(), request.arrival_time);
      controller->BeginAdmission(now);
      if (controller->ShouldReject(request, now)) {
        controller->OnRejected();
        continue;  // Shed at the replica door: no latency to merge, no load charged.
      }
    }
    engine.ServeRequest(request);
    if (controller != nullptr) {
      controller->OnAdmitted();
    }
    assignment[i] = r;
    loads[slot].busy_until = engine.now();
    ++loads[slot].assigned;
  }

  ExperimentResult result = MergeReplicas(task, replicas, assignment);
  result.cluster_enabled = count > 1;
  result.cluster.replicas = count;
  result.cluster.router = options.router_policy;
  result.cluster.memory = options.cluster_memory;
  size_t served = 0;
  for (int r = 0; r < count; ++r) {
    const Replica& replica = replicas[static_cast<size_t>(r)];
    const RunMetrics& metrics = replica.engine->metrics();
    ClusterReplicaStats stats;
    stats.replica = r;
    stats.requests = metrics.requests().size();
    stats.iterations = metrics.iterations();
    stats.mean_e2e = metrics.MeanEndToEnd();
    stats.hit_rate = metrics.HitRate();
    stats.busy_until = replica.engine->now();
    served += stats.requests;
    result.cluster.makespan = std::max(result.cluster.makespan, stats.busy_until);
    result.cluster.replica_stats.push_back(stats);
    if (closed_loop) {
      result.admission.arrived += replica.controller->counters().arrived;
      result.admission.admitted += replica.controller->counters().admitted;
      result.admission.rejected += replica.controller->counters().rejected;
    }
  }
  result.cluster.aggregate_throughput_rps =
      result.cluster.makespan > 0.0
          ? static_cast<double>(served) / result.cluster.makespan
          : 0.0;
  result.admission_enabled = closed_loop;
  result.admission_policy = admission.policy;
  return result;
}

// Continuous-batching protocol: the scheduler admits queued arrivals up to the batch limit
// under task.scheduler's discipline and admission policy.
ExperimentResult ServeScheduled(const ExperimentTask& task,
                                const std::vector<Request>& arrivals) {
  Replica replica = MakeReplica(task, 0, 1);
  ContinuousBatchScheduler scheduler(replica.engine.get(), task.scheduler);
  const std::vector<RequestMetrics> completed = scheduler.Run(arrivals);

  ExperimentResult result = FillResult(task, replica);
  result.scheduler_stats = scheduler.stats();
  if (task.scheduler.admission.policy != AdmissionPolicyKind::kOpenLoop) {
    result.admission_enabled = true;
    result.admission_policy = task.scheduler.admission.policy;
    result.admission = scheduler.controller().counters();
  }
  // The scheduler owns request completion: its drained metrics (completion order) replace the
  // engine-side per-request view, and end-to-end latencies include queueing.
  result.request_latencies.clear();
  double e2e_sum = 0.0;
  for (const RequestMetrics& metrics : completed) {
    result.request_latencies.push_back(metrics.EndToEnd());
    e2e_sum += metrics.EndToEnd();
    result.scheduled_tokens += static_cast<uint64_t>(metrics.decode_iterations) + 1;
  }
  result.mean_e2e =
      completed.empty() ? 0.0 : e2e_sum / static_cast<double>(completed.size());
  return result;
}

}  // namespace

bool ExperimentTask::HasTag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

EngineConfig MakeEngineConfig(const ExperimentOptions& options, const SystemSpec& spec) {
  EngineConfig config;
  config.prefetch_distance = options.prefetch_distance;
  config.gpu_count = options.gpu_count;
  config.expert_cache_bytes = spec.preload_all ? 0 : ResolveCacheBytes(options);
  config.cache_policy = spec.cache_policy;
  config.preload_all = spec.preload_all;
  config.frequency_decay = options.frequency_decay;
  config.placement = options.placement;
  config.gate = options.gate;
  config.hardware = options.hardware;
  config.seed = options.seed;
  config.matcher_latency_scale = options.matcher_latency_scale;
  config.matcher_queue_depth = options.matcher_queue_depth;
  config.tier = options.tier;
  config.trace = options.trace;
  return config;
}

uint64_t ResolveCacheBytes(const ExperimentOptions& options) {
  if (options.cache_bytes != 0) {
    return options.cache_bytes;
  }
  const double total = static_cast<double>(options.model.total_expert_bytes());
  return static_cast<uint64_t>(total * options.cache_fraction);
}

ExperimentResult RunTask(const ExperimentTask& task, TraceRecorder* trace) {
  if (trace != nullptr) {
    ExperimentTask traced = task;
    traced.options.trace = trace;
    return RunTask(traced);
  }
  if (task.mode == ExperimentMode::kOffline) {
    FMOE_CHECK_MSG(task.arrivals == nullptr,
                   "offline tasks split a generated workload; arrivals need an online or "
                   "scheduled task");
    return ServeOffline(task);
  }
  // Arrival lengths come from the trace, so options.max_decode_tokens does not apply here.
  std::vector<Request> generated;
  if (task.arrivals == nullptr) {
    generated = TraceGenerator(task.trace, task.options.dataset, task.options.seed)
                    .Generate(task.request_count);
  }
  const std::vector<Request>& arrivals = task.arrivals != nullptr ? *task.arrivals : generated;
  return task.mode == ExperimentMode::kScheduled ? ServeScheduled(task, arrivals)
                                                 : ServeInOrder(task, arrivals);
}

ExperimentResult RunOffline(const std::string& system_name, const ExperimentOptions& options) {
  ExperimentTask task;
  task.system = system_name;
  task.options = options;
  return RunTask(task);
}

ExperimentResult RunScheduled(const std::string& system_name, const ExperimentOptions& options,
                              const TraceProfile& trace, size_t request_count,
                              const SchedulerOptions& sched) {
  ExperimentTask task;
  task.system = system_name;
  task.options = options;
  task.mode = ExperimentMode::kScheduled;
  task.trace = trace;
  task.request_count = request_count;
  task.scheduler = sched;
  return RunTask(task);
}

}  // namespace fmoe
