#include "perfbench/src/workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/core/fmoe_policy.h"
#include "src/harness/systems.h"
#include "src/moe/model_config.h"
#include "src/obs/trace_recorder.h"
#include "src/serving/engine.h"
#include "src/serving/trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The dataset a generator sees: ExperimentOptions::max_decode_tokens caps generation length,
// exactly as the library's runners apply it.
fmoe::DatasetProfile CappedDataset(const fmoe::ExperimentOptions& options) {
  fmoe::DatasetProfile dataset = options.dataset;
  if (options.max_decode_tokens > 0) {
    dataset.max_decode_tokens = options.max_decode_tokens;
  }
  return dataset;
}

// The engine configuration the library's runners derive from ExperimentOptions.
fmoe::EngineConfig EngineConfigFor(const fmoe::ExperimentOptions& options,
                                   const fmoe::SystemSpec& system) {
  fmoe::EngineConfig config;
  config.prefetch_distance = options.prefetch_distance;
  config.gpu_count = options.gpu_count;
  config.expert_cache_bytes = system.preload_all ? 0 : fmoe::ResolveCacheBytes(options);
  config.cache_policy = system.cache_policy;
  config.preload_all = system.preload_all;
  config.frequency_decay = options.frequency_decay;
  config.placement = options.placement;
  config.gate = options.gate;
  config.hardware = options.hardware;
  config.seed = options.seed;
  config.matcher_latency_scale = options.matcher_latency_scale;
  config.matcher_queue_depth = options.matcher_queue_depth;
  config.tier = options.tier;
  return config;
}

LinkCounts ReadLinks(const fmoe::ServingEngine& engine) {
  LinkCounts counts;
  for (int i = 0; i < engine.cluster().device_count(); ++i) {
    const fmoe::PcieLink& link = engine.cluster().device(i).link();
    counts.prefetch_transfers += link.prefetch_count();
    counts.demand_transfers += link.demand_load_count();
    counts.prefetch_bytes += link.total_prefetch_bytes();
    counts.demand_bytes += link.total_demand_bytes();
    counts.busy_s += link.total_busy_sec();
    counts.demand_wait_s += link.total_demand_wait_sec();
  }
  return counts;
}

LinkCounts operator-(const LinkCounts& a, const LinkCounts& b) {
  return {a.prefetch_transfers - b.prefetch_transfers, a.demand_transfers - b.demand_transfers,
          a.prefetch_bytes - b.prefetch_bytes,         a.demand_bytes - b.demand_bytes,
          a.busy_s - b.busy_s,                         a.demand_wait_s - b.demand_wait_s};
}

CacheCounts ReadCache(const fmoe::ExpertCache& cache) {
  CacheCounts counts;
  counts.insertions = cache.stats().insertions;
  counts.evictions = cache.stats().evictions;
  counts.rejected_insertions = cache.stats().rejected_insertions;
  counts.victim_picks = cache.index_stats().victim_picks;
  counts.heap_pops = cache.index_stats().heap_pops;
  counts.heap_pushes = cache.index_stats().heap_pushes;
  counts.heap_rebuilds = cache.index_stats().heap_rebuilds;
  counts.order_oracle_rebuilds = cache.order_stats().rebuilds;
  return counts;
}

CacheCounts operator-(const CacheCounts& a, const CacheCounts& b) {
  return {a.insertions - b.insertions,       a.evictions - b.evictions,
          a.rejected_insertions - b.rejected_insertions,
          a.victim_picks - b.victim_picks,   a.heap_pops - b.heap_pops,
          a.heap_pushes - b.heap_pushes,     a.heap_rebuilds - b.heap_rebuilds,
          a.order_oracle_rebuilds - b.order_oracle_rebuilds};
}

// Fills the fields FillResult (and, online, RunScheduledReplay) would report.
void FillRunnerView(const WorkloadSpec& spec, const fmoe::ServingEngine& engine,
                    const fmoe::SystemSpec& system, SystemRun* run) {
  const fmoe::RunMetrics& metrics = engine.metrics();
  fmoe::ExperimentResult& view = run->runner_view;
  view.system = run->system;
  view.mean_ttft = metrics.MeanTtft();
  view.mean_tpot = metrics.MeanTpot();
  view.hit_rate = metrics.HitRate();
  view.mean_e2e = metrics.MeanEndToEnd();
  view.iterations = metrics.iterations();
  view.breakdown = metrics.breakdown();
  view.deferred = metrics.deferred();
  view.cache_capacity_gb = static_cast<double>(engine.cache().capacity_bytes()) / kGiB;
  view.cache_used_gb = static_cast<double>(engine.cache().used_bytes()) / kGiB;
  view.request_latencies = metrics.EndToEndLatencies();
  view.low_precision_share = metrics.LowPrecisionShare();
  if (const auto* fmoe_policy = dynamic_cast<const fmoe::FmoePolicy*>(system.policy.get())) {
    view.mean_semantic_score = fmoe_policy->MeanSemanticScore();
    view.mean_trajectory_score = fmoe_policy->MeanTrajectoryScore();
  }
  if (!spec.online) {
    return;
  }
  view.scheduler_stats = run->sched_stats;
  if (spec.sched.admission.policy != fmoe::AdmissionPolicyKind::kOpenLoop) {
    view.admission_enabled = true;
    view.admission_policy = spec.sched.admission.policy;
    view.admission = run->admission;
  }
  view.request_latencies.clear();
  view.scheduled_tokens = 0;
  double e2e_sum = 0.0;
  for (const fmoe::RequestMetrics& request : run->completed) {
    view.request_latencies.push_back(request.EndToEnd());
    e2e_sum += request.EndToEnd();
    view.scheduled_tokens += static_cast<uint64_t>(request.decode_iterations) + 1;
  }
  view.mean_e2e =
      run->completed.empty() ? 0.0 : e2e_sum / static_cast<double>(run->completed.size());
}

// Serves one system. `history` warms it (empty on the cold-start workload); `measured` is the
// offline test split or the online arrival schedule.
SystemRun RunSystem(const WorkloadSpec& spec, const std::string& name,
                    const std::vector<fmoe::Request>& history,
                    const std::vector<fmoe::Request>& measured, Observers observers) {
  const fmoe::ExperimentOptions& options = spec.options;
  SystemRun run;
  run.system = name;
  run.observers = observers;
  const bool probed = observers != Observers::kNone;

  // Observers first: the engine is destroyed before them, and deferred jobs it still holds
  // point into `probe`.
  ProbeData probe;
  fmoe::TraceRecorder recorder;
  fmoe::GateDecisionRecorder tape;

  const Clock::time_point build_start = Clock::now();
  fmoe::SystemSpec system =
      fmoe::MakeSystem(name, options.model, options.prefetch_distance, options.store_capacity,
                       options.low_precision_threshold, options.map_precision,
                       options.host_stage_candidates, options.map_shards);
  TimingPolicy timing(system.policy.get(), &probe);
  fmoe::EngineConfig config = EngineConfigFor(options, system);
  if (observers == Observers::kTrace) {
    config.trace = &recorder;
  }
  fmoe::ServingEngine engine(options.model, config,
                             probed ? static_cast<fmoe::OffloadPolicy*>(&timing)
                                    : system.policy.get());
  if (probed) {
    engine.SetOracleRecorder(&tape);
  }
  run.build_s = Since(build_start);

  const Clock::time_point warmup_start = Clock::now();
  engine.WarmupWithHistory(history);
  run.warmup_s = Since(warmup_start);

  const auto* fmoe_policy = dynamic_cast<const fmoe::FmoePolicy*>(system.policy.get());
  if (fmoe_policy != nullptr) {
    run.has_store = true;
    run.store_records_after_warmup = fmoe_policy->store().size();
  }
  const CacheCounts cache_before = ReadCache(engine.cache());
  const LinkCounts links_before = ReadLinks(engine);
  run.window_start = engine.now();
  run.pending_before = engine.PendingDeferredJobs();
  probe.OpenWindow();

  const Clock::time_point serve_start = Clock::now();
  if (spec.online) {
    fmoe::ContinuousBatchScheduler scheduler(&engine, spec.sched);
    {
      ScopedSpan span(probe.timer, Span::kEngine);
      run.completed = scheduler.Run(measured);
    }
    run.sched_stats = scheduler.stats();
    run.admission = scheduler.controller().counters();
  } else {
    ScopedSpan span(probe.timer, Span::kEngine);
    for (const fmoe::Request& request : measured) {
      engine.ServeBatch(std::span<const fmoe::Request>(&request, 1));
    }
  }
  run.serve_s = Since(serve_start);

  const fmoe::RunMetrics& metrics = engine.metrics();
  run.window_end = engine.now();
  if (spec.online) {
    std::unordered_map<uint64_t, const fmoe::Request*> by_id;
    for (const fmoe::Request& request : measured) {
      by_id.emplace(request.id, &request);
    }
    for (const fmoe::RequestMetrics& done : run.completed) {
      run.served.push_back(*by_id.at(done.request_id));
    }
    run.arrived = run.sched_stats.arrived_requests;
    run.shed = run.sched_stats.rejected_requests;
    run.batch_occupancy = run.sched_stats.mean_batch_occupancy;
  } else {
    run.completed = metrics.requests();
    run.served = measured;
    run.arrived = measured.size();
  }
  run.hits = metrics.expert_hits();
  run.misses = metrics.expert_misses();
  run.iterations = metrics.iterations();
  run.prefill_iterations = metrics.prefill_latency().count();
  run.breakdown = metrics.breakdown();
  run.deferred = metrics.deferred();
  run.pending_after = engine.PendingDeferredJobs();
  run.cache = ReadCache(engine.cache()) - cache_before;
  run.link = ReadLinks(engine) - links_before;
  run.devices = engine.cluster().device_count();
  if (fmoe_policy != nullptr) {
    run.store_records = fmoe_policy->store().size();
    run.store_capacity = fmoe_policy->store().capacity();
    run.store_bytes = fmoe_policy->store().MemoryBytes();
  }
  FillRunnerView(spec, engine, system, &run);

  if (!probed) {
    return run;
  }
  for (size_t i = 0; i < run.span_s.size(); ++i) {
    run.span_s[i] = probe.timer.seconds(static_cast<Span>(i));
  }
  run.prefetch_requests = probe.prefetches.size();
  run.prefetch_precision = PrefetchPrecision(probe.prefetches, tape.accesses());
  run.tape_accesses = tape.accesses().size();
  for (const fmoe::OracleAccess& access : tape.accesses()) {
    run.tape_hits += access.policy_hit ? 1 : 0;
  }
  if (observers == Observers::kTrace) {
    run.stall = recorder.stall();
  } else {
    run.gate = ReplayGate(engine.gate(), run.served);
    fmoe::OracleConfig oracle_config;
    oracle_config.expert_bytes = options.model.expert_bytes;
    oracle_config.link = engine.config().gpu.link;
    const Clock::time_point oracle_start = Clock::now();
    run.oracle = fmoe::ComputeOracleReport(tape, oracle_config, metrics.breakdown().demand_stall);
    run.oracle_s = Since(oracle_start);
  }
  return run;
}

// Bit-exact rendering of numbers for fingerprints and field comparisons.
std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}
std::string Hex(uint64_t value) { return std::to_string(value); }

using Fields = std::vector<std::pair<std::string, std::string>>;

void AddBreakdown(const std::string& prefix, const fmoe::LatencyBreakdown& b, Fields* out) {
  out->emplace_back(prefix + "attention_compute", Hex(b.attention_compute));
  out->emplace_back(prefix + "expert_compute", Hex(b.expert_compute));
  out->emplace_back(prefix + "demand_stall", Hex(b.demand_stall));
  out->emplace_back(prefix + "layer_overhead", Hex(b.layer_overhead));
  for (size_t i = 0; i < b.sync_overhead.size(); ++i) {
    out->emplace_back(prefix + "sync_overhead[" + std::to_string(i) + "]",
                      Hex(b.sync_overhead[i]));
    out->emplace_back(prefix + "async_work[" + std::to_string(i) + "]", Hex(b.async_work[i]));
  }
}

void AddDeferred(const std::string& prefix, const fmoe::DeferredPipelineStats& d, Fields* out) {
  out->emplace_back(prefix + "published", Hex(d.published));
  out->emplace_back(prefix + "applied", Hex(d.applied));
  out->emplace_back(prefix + "superseded", Hex(d.superseded));
  out->emplace_back(prefix + "dropped", Hex(d.dropped));
  out->emplace_back(prefix + "blocking", Hex(d.blocking));
  out->emplace_back(prefix + "modeled_work_s", Hex(d.modeled_work_s));
  out->emplace_back(prefix + "overlapped_s", Hex(d.overlapped_s));
  out->emplace_back(prefix + "wasted_work_s", Hex(d.wasted_work_s));
  out->emplace_back(prefix + "queue_wait_s", Hex(d.queue_wait_s));
  out->emplace_back(prefix + "decision_latency_s", Hex(d.decision_latency_s));
}

// Every field of an ExperimentResult that a single-engine offline or scheduled run sets.
Fields RunnerFields(const fmoe::ExperimentResult& r) {
  Fields out;
  out.emplace_back("system", r.system);
  out.emplace_back("mean_ttft", Hex(r.mean_ttft));
  out.emplace_back("mean_tpot", Hex(r.mean_tpot));
  out.emplace_back("hit_rate", Hex(r.hit_rate));
  out.emplace_back("mean_e2e", Hex(r.mean_e2e));
  out.emplace_back("iterations", Hex(r.iterations));
  AddBreakdown("breakdown.", r.breakdown, &out);
  AddDeferred("deferred.", r.deferred, &out);
  out.emplace_back("cache_capacity_gb", Hex(r.cache_capacity_gb));
  out.emplace_back("cache_used_gb", Hex(r.cache_used_gb));
  out.emplace_back("request_latencies.size", Hex(uint64_t{r.request_latencies.size()}));
  for (size_t i = 0; i < r.request_latencies.size(); ++i) {
    out.emplace_back("request_latencies[" + std::to_string(i) + "]",
                     Hex(r.request_latencies[i]));
  }
  out.emplace_back("low_precision_share", Hex(r.low_precision_share));
  out.emplace_back("mean_semantic_score", Hex(r.mean_semantic_score));
  out.emplace_back("mean_trajectory_score", Hex(r.mean_trajectory_score));
  const fmoe::SchedulerStats& s = r.scheduler_stats;
  out.emplace_back("scheduler.served_requests", Hex(uint64_t{s.served_requests}));
  out.emplace_back("scheduler.total_iterations", Hex(s.total_iterations));
  out.emplace_back("scheduler.makespan_sec", Hex(s.makespan_sec));
  out.emplace_back("scheduler.mean_batch_occupancy", Hex(s.mean_batch_occupancy));
  out.emplace_back("scheduler.arrived_requests", Hex(uint64_t{s.arrived_requests}));
  out.emplace_back("scheduler.admitted_requests", Hex(uint64_t{s.admitted_requests}));
  out.emplace_back("scheduler.rejected_requests", Hex(uint64_t{s.rejected_requests}));
  out.emplace_back("scheduled_tokens", Hex(r.scheduled_tokens));
  out.emplace_back("admission_enabled", r.admission_enabled ? "1" : "0");
  out.emplace_back("admission.arrived", Hex(r.admission.arrived));
  out.emplace_back("admission.admitted", Hex(r.admission.admitted));
  out.emplace_back("admission.rejected", Hex(r.admission.rejected));
  return out;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"offline_paper5", "offline_fmoe_store1k", "online_batched_slo"};
}

uint64_t SubSeed(uint64_t seed, int index) {
  return seed ^ (static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ULL);
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec w;
  w.name = name;
  fmoe::ExperimentOptions& o = w.options;
  o.seed = seed;
  o.cache_fraction = 0.22;
  if (name == "offline_paper5") {
    // fig09's operating point: the five paper systems, Mixtral, LMSYS-like prompts.
    w.systems = fmoe::PaperSystemNames();
    o.model = fmoe::MixtralConfig();
    o.dataset = fmoe::LmsysLikeProfile();
    o.history_requests = 40;
    o.test_requests = 100;
    o.store_capacity = 512;
    o.max_decode_tokens = 32;
    w.store_full_after_warmup = true;
    w.instances = 8;
  } else if (name == "offline_fmoe_store1k") {
    // fMoE alone with the paper's 1K-map store, full after warmup so every insert dedups.
    w.systems = {"fMoE"};
    o.model = fmoe::QwenMoeConfig();
    o.dataset = fmoe::ShareGptLikeProfile();
    o.history_requests = 40;
    o.test_requests = 100;
    o.store_capacity = 1000;
    o.max_decode_tokens = 64;
    w.store_full_after_warmup = true;
    w.instances = 4;
  } else if (name == "online_batched_slo") {
    // Cold start, open-loop Azure-like arrivals (bursty Poisson) about 1.4x past the knee,
    // continuous batching, a live matcher queue, and gradient admission shedding against a
    // 60 s SLO. Past the knee the batch stays full and shedding bounds the queue, so the
    // SLO metrics are steady across seeds; at the knee they are not.
    w.online = true;
    w.systems = {"fMoE"};
    o.model = fmoe::PhiMoeConfig();
    o.dataset = fmoe::LmsysLikeProfile();
    o.max_decode_tokens = 0;  // Generation lengths come from the trace profile.
    o.matcher_latency_scale = 1.0;
    w.trace.mean_arrival_rate = 0.5;
    w.trace.max_decode_tokens = 64;  // A speed cap, like max_decode_tokens offline.
    w.arrivals = 600;
    w.instances = 4;
    w.sched.max_batch_size = 8;
    w.sched.admission.policy = fmoe::AdmissionPolicyKind::kGradient;
    w.sched.admission.slo_sec = 60.0;
  } else {
    return false;
  }
  if (tiny) {
    o.model = fmoe::TinyTestConfig();
    o.history_requests = 8;
    o.test_requests = 12;
    o.store_capacity = 32;
    o.max_decode_tokens = 8;
    w.arrivals = 16;
    w.trace.max_decode_tokens = 8;
  }
  *spec = std::move(w);
  return true;
}

uint64_t SystemRun::Tokens() const {
  uint64_t tokens = 0;
  for (const fmoe::RequestMetrics& request : completed) {
    tokens += static_cast<uint64_t>(request.decode_iterations) + 1;
  }
  return tokens;
}

double PassResult::SetupSeconds() const {
  double seconds = workload_gen_s;
  for (const SystemRun& run : systems) {
    seconds += run.build_s + run.warmup_s;
  }
  return seconds;
}

double PassResult::ServeSeconds() const {
  double seconds = 0.0;
  for (const SystemRun& run : systems) {
    seconds += run.serve_s;
  }
  return seconds;
}

uint64_t PassResult::Tokens() const {
  uint64_t tokens = 0;
  for (const SystemRun& run : systems) {
    tokens += run.Tokens();
  }
  return tokens;
}

const SystemRun& PassResult::Fmoe() const {
  for (const SystemRun& run : systems) {
    if (run.system == "fMoE") {
      return run;
    }
  }
  return systems.front();
}

PassResult RunPass(const WorkloadSpec& spec, Observers observers) {
  const fmoe::ExperimentOptions& options = spec.options;
  PassResult pass;
  const Clock::time_point gen_start = Clock::now();
  std::vector<fmoe::Request> history;
  std::vector<fmoe::Request> measured;
  if (spec.online) {
    fmoe::TraceGenerator generator(spec.trace, CappedDataset(options), options.seed);
    measured = generator.Generate(spec.arrivals);
  } else {
    fmoe::WorkloadGenerator generator(CappedDataset(options), options.seed);
    const size_t total = options.history_requests + options.test_requests;
    fmoe::WorkloadSplit split =
        fmoe::SplitWorkload(generator.Generate(total),
                            static_cast<double>(options.history_requests) /
                                static_cast<double>(total));
    history = std::move(split.history);
    measured = std::move(split.test);
  }
  pass.workload_gen_s = Since(gen_start);
  for (const std::string& name : spec.systems) {
    pass.systems.push_back(RunSystem(spec, name, history, measured, observers));
  }
  return pass;
}

std::string VirtualFingerprint(const PassResult& pass) {
  std::string out;
  for (const SystemRun& run : pass.systems) {
    Fields fields = RunnerFields(run.runner_view);
    for (const fmoe::RequestMetrics& r : run.completed) {
      const std::string id = "request[" + std::to_string(r.request_id) + "].";
      fields.emplace_back(id + "arrival", Hex(r.arrival_time));
      fields.emplace_back(id + "start", Hex(r.start_time));
      fields.emplace_back(id + "first_token", Hex(r.first_token_time));
      fields.emplace_back(id + "completion", Hex(r.completion_time));
      fields.emplace_back(id + "decode", std::to_string(r.decode_iterations));
    }
    fields.emplace_back("window", Hex(run.window_start) + ".." + Hex(run.window_end));
    fields.emplace_back("hits/misses", Hex(run.hits) + "/" + Hex(run.misses));
    fields.emplace_back("prefill_iterations", Hex(run.prefill_iterations));
    fields.emplace_back("pending", Hex(run.pending_before) + ".." + Hex(run.pending_after));
    const CacheCounts& c = run.cache;
    for (const uint64_t v : {c.insertions, c.evictions, c.rejected_insertions, c.victim_picks,
                             c.heap_pops, c.heap_pushes, c.heap_rebuilds,
                             c.order_oracle_rebuilds}) {
      fields.emplace_back("cache", Hex(v));
    }
    const LinkCounts& l = run.link;
    fields.emplace_back("link", Hex(l.prefetch_transfers) + " " + Hex(l.demand_transfers) + " " +
                                    Hex(l.prefetch_bytes) + " " + Hex(l.demand_bytes) + " " +
                                    Hex(l.busy_s) + " " + Hex(l.demand_wait_s));
    fields.emplace_back("store", Hex(uint64_t{run.store_records}) + " " +
                                     Hex(uint64_t{run.store_bytes}));
    for (const auto& [key, value] : fields) {
      out += run.system + "." + key + "=" + value + "\n";
    }
  }
  return out;
}

std::vector<std::string> ConservationViolations(const WorkloadSpec& spec,
                                                const PassResult& pass) {
  std::vector<std::string> violations;
  auto check = [&](bool ok, const SystemRun& run, const std::string& what) {
    if (!ok) {
      violations.push_back(run.system + ": " + what);
    }
  };
  for (const SystemRun& run : pass.systems) {
    if (spec.online) {
      check(run.arrived == spec.arrivals, run, "arrived != arrivals generated");
      check(run.admission.arrived == run.admission.admitted + run.admission.rejected, run,
            "controller: arrived != admitted + shed");
      check(run.sched_stats.arrived_requests ==
                run.sched_stats.admitted_requests + run.sched_stats.rejected_requests,
            run, "scheduler: arrived != admitted + shed");
      check(run.completed.size() == run.sched_stats.admitted_requests, run,
            "an admitted request did not complete");
    } else {
      check(run.completed.size() == run.arrived, run, "a measured request did not complete");
    }
    const fmoe::DeferredPipelineStats& d = run.deferred;
    check(d.published + run.pending_before ==
              d.applied + d.superseded + d.dropped + d.blocking + run.pending_after,
          run, "deferred: published + pending-before != resolved + pending-after");
    if (spec.store_full_after_warmup && run.has_store) {
      check(run.store_records_after_warmup == run.store_capacity, run,
            "map store not at capacity after warmup");
    }
    if (run.observers != Observers::kNone) {
      check(run.tape_accesses == run.hits + run.misses, run,
            "hits + misses != oracle tape length");
      check(run.tape_hits == run.hits, run, "tape hits != engine hits");
    }
    if (run.observers == Observers::kTrace) {
      check(run.stall.total_seconds == run.breakdown.demand_stall, run,
            "attributed stall != demand_stall (bitwise)");
      const double sum = run.stall.CategorySum();
      check(std::fabs(sum - run.stall.total_seconds) <=
                1e-9 * std::max(1.0, run.stall.total_seconds),
            run, "stall classes do not sum to demand_stall");
      check(run.stall.misses[0] + run.stall.misses[1] + run.stall.misses[2] ==
                run.stall.total_misses,
            run, "stall-class misses do not sum to the attributed misses");
    }
  }
  return violations;
}

std::vector<std::string> RunnerMismatches(const WorkloadSpec& spec, const PassResult& pass) {
  std::vector<std::string> mismatches;
  for (const SystemRun& run : pass.systems) {
    const fmoe::ExperimentResult library =
        spec.online ? fmoe::RunScheduled(run.system, spec.options, spec.trace, spec.arrivals,
                                         spec.sched)
                    : fmoe::RunOffline(run.system, spec.options);
    const Fields expected = RunnerFields(library);
    const Fields actual = RunnerFields(run.runner_view);
    if (expected.size() != actual.size()) {
      mismatches.push_back(run.system + ": field count " + std::to_string(actual.size()) +
                           " != runner's " + std::to_string(expected.size()));
      continue;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i] != actual[i]) {
        mismatches.push_back(run.system + "." + expected[i].first + ": " + actual[i].second +
                             " != runner's " + expected[i].second);
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
