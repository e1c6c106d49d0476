// perfbench: the repository's serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//             [--source-id <id>]
//   perfbench --list-metrics
//
// --trace 0 serves `instances` copies of the workload (one per sub-seed), cycling through them
// for at least --seconds and at least one repetition each, and reports the end-to-end metrics:
// virtual-time serving quality of the fMoE system over the pooled copies (deterministic per
// seed) and wall-clock simulator speed, set-up time and memory (medians over repetitions).
// --trace 1 serves one copy three times (plain, with the probe.h observers, and with those
// plus a TraceRecorder) and reports the per-layer metrics. Both modes run the correctness
// gate; any violation is a failed operation and makes the exit status nonzero. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/util/math.h"
#include "src/util/stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Stop starting repetitions past this many seconds so a run always ends well within 180 s.
constexpr double kRunBudgetSeconds = 120.0;

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
};

// Units: sim_ms / sim_s are virtual (simulated) time; s / us are host wall-clock time.
constexpr MetricDef kEndToEnd[] = {
    {"ttft_p50_ms", "sim_ms", false},      {"ttft_p90_ms", "sim_ms", false},
    {"tpot_p50_ms", "sim_ms", false},      {"tpot_p90_ms", "sim_ms", false},
    {"expert_hit_rate", "ratio", true},    {"e2e_p50_s", "sim_s", false},
    {"e2e_p90_s", "sim_s", false},         {"slo_attainment", "ratio", true},
    {"goodput_rps", "req/sim_s", true},    {"sim_tokens_per_s", "tok/s", true},
    {"setup_s", "s", false},               {"peak_rss_mib", "MiB", false},
};

constexpr MetricDef kPerLayer[] = {
    {"harness.workload_gen_s", "s", false},
    {"harness.system_build_s", "s", false},
    {"harness.warmup_s", "s", false},
    {"harness.trace_overhead_ratio", "ratio", false},
    {"serving.engine_self_s", "s", false},
    {"serving.iterations", "count", false},
    {"serving.prefill_iterations", "count", false},
    {"serving.wall_us_per_iteration", "us", false},
    {"serving.attention_s", "sim_s", false},
    {"serving.expert_compute_s", "sim_s", false},
    {"serving.demand_stall_s", "sim_s", false},
    {"serving.layer_overhead_s", "sim_s", false},
    {"serving.deferred_published", "count", false},
    {"core.iteration_start_s", "s", false},
    {"core.gate_output_s", "s", false},
    {"core.iteration_end_s", "s", false},
    {"core.apply_s", "s", false},
    {"core.policy_self_s", "s", false},
    {"core.prefetch_requests", "count", false},
    {"core.prefetch_precision", "ratio", true},
    {"core.store_records", "count", false},
    {"core.store_mib", "MiB", false},
    {"core.sync_overhead_s", "sim_s", false},
    {"core.async_work_s", "sim_s", false},
    {"moe.gate_prefill_s", "s", false},
    {"moe.gate_decode_s", "s", false},
    {"moe.gate_calls", "count", false},
    {"cache.insertions", "count", false},
    {"cache.evictions", "count", false},
    {"cache.rejected_insertions", "count", false},
    {"cache.victim_picks", "count", false},
    {"cache.heap_pops", "count", false},
    {"cache.heap_pushes", "count", false},
    {"cache.heap_rebuilds", "count", false},
    {"cache.heap_pops_per_pick", "ratio", false},
    {"cache.order_oracle_rebuilds", "count", false},
    {"memsim.prefetch_transfers", "count", false},
    {"memsim.demand_transfers", "count", false},
    {"memsim.prefetch_gib", "GiB", false},
    {"memsim.demand_gib", "GiB", false},
    {"memsim.link_busy_s", "sim_s", false},
    {"memsim.link_utilization", "ratio", false},
    {"memsim.demand_wait_s", "sim_s", false},
    {"obs.stall_never_prefetched_s", "sim_s", false},
    {"obs.stall_in_flight_s", "sim_s", false},
    {"obs.stall_evicted_before_use_s", "sim_s", false},
    {"obs.stall_never_prefetched_misses", "count", false},
    {"obs.stall_in_flight_misses", "count", false},
    {"obs.stall_evicted_before_use_misses", "count", false},
    {"oracle.report_s", "s", false},
    {"oracle.pct_of_optimum", "%", true},
    {"oracle.misses", "count", false},
};

// Per-layer metrics fixed by construction on the offline workloads (nothing queues or is
// shed, every batch holds one request, the matcher is instantaneous), or 0 everywhere until
// the capacity-aware oracle bound lands. They are printed for people but kept out of the
// JSON result, whose values are measured.
constexpr MetricDef kPerLayerPrintedOnly[] = {
    {"serving.queue_wait_p50_s", "sim_s", false},
    {"serving.queue_wait_p90_s", "sim_s", false},
    {"serving.batch_occupancy_mean", "count", true},
    {"serving.admitted", "count", true},
    {"serving.shed", "count", false},
    {"serving.deferred_applied_ratio", "ratio", true},
    {"serving.deferred_superseded", "count", false},
    {"serving.deferred_dropped", "count", false},
    {"serving.deferred_queue_wait_s", "sim_s", false},
    {"serving.deferred_decision_latency_s", "sim_s", false},
    {"oracle.stall_s", "sim_s", false},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool list_metrics = false;
  std::string source_id = "unknown";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--source-id <id>]\n       perfbench --list-metrics\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--source-id") {
      args.source_id = value();
    } else if (flag == "--list-metrics") {
      args.list_metrics = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return args;
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double Median(const std::vector<double>& values) { return fmoe::Percentile(values, 50.0); }

// Peak resident set of this program image: VmHWM, in KiB. getrusage's ru_maxrss is not used
// because Linux carries it across exec, so it would include the launcher's footprint.
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// Metric values in the order of one of the tables above.
class Report {
 public:
  void Set(const char* name, double value) { values_.emplace_back(name, value); }

  // Prints every metric of `defs` for people and returns them as the body of a JSON object.
  // Missing metrics are an internal error (the tables and the computation disagree).
  template <size_t N>
  std::string Render(const MetricDef (&defs)[N], std::vector<std::string>* problems) const {
    std::string json;
    for (const MetricDef& def : defs) {
      const auto it = std::find_if(values_.begin(), values_.end(),
                                   [&](const auto& v) { return v.first == def.name; });
      if (it == values_.end()) {
        problems->push_back(std::string("metric not computed: ") + def.name);
        continue;
      }
      double value = it->second;
      if (!std::isfinite(value)) {
        problems->push_back(std::string("metric not finite: ") + def.name);
        value = 0.0;
      }
      std::printf("metric %-40s %20.9g %-9s (%s is better)\n", def.name, value, def.unit,
                  def.higher_is_better ? "higher" : "lower");
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", def.name, value, def.unit);
      json += buffer;
    }
    return json;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// Virtual-time end-to-end metrics of the fMoE system over the pooled instances (deterministic
// for a seed).
void AddServingQuality(const WorkloadSpec& spec, const std::vector<PassResult>& instances,
                       Report* report) {
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  std::vector<double> e2e_s;
  uint64_t hits = 0;
  uint64_t accesses = 0;
  size_t arrived = 0;
  size_t within_slo = 0;
  double makespan = 0.0;
  const double slo = spec.sched.admission.slo_sec;
  for (const PassResult& pass : instances) {
    const SystemRun& fmoe = pass.Fmoe();
    for (const fmoe::RequestMetrics& r : fmoe.completed) {
      ttft_ms.push_back(r.Ttft() * 1e3);
      tpot_ms.push_back(r.Tpot() * 1e3);
      // Offline, the whole test split is submitted when the measured window opens.
      const double e2e = spec.online ? r.EndToEnd() : r.completion_time - fmoe.window_start;
      e2e_s.push_back(e2e);
      within_slo += (!spec.online || slo <= 0.0 || e2e <= slo) ? 1 : 0;
    }
    hits += fmoe.hits;
    accesses += fmoe.hits + fmoe.misses;
    arrived += fmoe.arrived;
    makespan +=
        spec.online ? fmoe.sched_stats.makespan_sec : fmoe.window_end - fmoe.window_start;
  }
  report->Set("ttft_p50_ms", fmoe::Percentile(ttft_ms, 50.0));
  report->Set("ttft_p90_ms", fmoe::Percentile(ttft_ms, 90.0));
  report->Set("tpot_p50_ms", fmoe::Percentile(tpot_ms, 50.0));
  report->Set("tpot_p90_ms", fmoe::Percentile(tpot_ms, 90.0));
  report->Set("expert_hit_rate", Ratio(static_cast<double>(hits), static_cast<double>(accesses)));
  report->Set("e2e_p50_s", fmoe::Percentile(e2e_s, 50.0));
  report->Set("e2e_p90_s", fmoe::Percentile(e2e_s, 90.0));
  // A shed request is an arrived request that missed the SLO.
  report->Set("slo_attainment",
              Ratio(static_cast<double>(within_slo), static_cast<double>(arrived)));
  report->Set("goodput_rps", Ratio(static_cast<double>(within_slo), makespan));
}

// Per-layer metrics from the three passes of one seed: plain (harness wall time, the
// untraced serving wall), probed (wall split by layer, counters, gate replay, oracle) and
// traced (stall attribution, tracing cost).
void AddLayerMetrics(const WorkloadSpec& spec, const PassResult& plain, const PassResult& probed,
                     const PassResult& traced, Report* report) {
  // Wall-clock time and the work behind sim_tokens_per_s are summed over every system the
  // workload serves; virtual-time and quality metrics are the fMoE system's.
  double build_s = 0.0;
  double warmup_s = 0.0;
  uint64_t iterations = 0;
  uint64_t prefill_iterations = 0;
  std::array<double, static_cast<size_t>(Span::kCount)> span_s = {};
  GateReplay gate;
  CacheCounts cache;
  double oracle_s = 0.0;
  for (const SystemRun& run : plain.systems) {
    build_s += run.build_s;
    warmup_s += run.warmup_s;
  }
  for (const SystemRun& run : probed.systems) {
    iterations += run.iterations;
    prefill_iterations += run.prefill_iterations;
    for (size_t i = 0; i < span_s.size(); ++i) {
      span_s[i] += run.span_s[i];
    }
    gate.prefill_s += run.gate.prefill_s;
    gate.decode_s += run.gate.decode_s;
    gate.calls += run.gate.calls;
    cache.insertions += run.cache.insertions;
    cache.evictions += run.cache.evictions;
    cache.rejected_insertions += run.cache.rejected_insertions;
    cache.victim_picks += run.cache.victim_picks;
    cache.heap_pops += run.cache.heap_pops;
    cache.heap_pushes += run.cache.heap_pushes;
    cache.heap_rebuilds += run.cache.heap_rebuilds;
    cache.order_oracle_rebuilds += run.cache.order_oracle_rebuilds;
    oracle_s += run.oracle_s;
  }
  auto span = [&](Span s) { return span_s[static_cast<size_t>(s)]; };
  const double engine_self_s = span(Span::kEngine);
  const double policy_self_s = span(Span::kIterationStart) + span(Span::kGateOutput) +
                               span(Span::kIterationEnd) + span(Span::kApply) +
                               span(Span::kOtherHook);
  const SystemRun& fmoe = probed.Fmoe();
  auto as_double = [](uint64_t v) { return static_cast<double>(v); };
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

  report->Set("harness.workload_gen_s", plain.workload_gen_s);
  report->Set("harness.system_build_s", build_s);
  report->Set("harness.warmup_s", warmup_s);
  report->Set("harness.trace_overhead_ratio",
              Ratio(traced.ServeSeconds(), plain.ServeSeconds()));

  report->Set("serving.engine_self_s", engine_self_s);
  report->Set("serving.iterations", as_double(iterations));
  report->Set("serving.prefill_iterations", as_double(prefill_iterations));
  report->Set("serving.wall_us_per_iteration",
              Ratio(plain.ServeSeconds() * 1e6, as_double(iterations)));
  report->Set("serving.attention_s", fmoe.breakdown.attention_compute);
  report->Set("serving.expert_compute_s", fmoe.breakdown.expert_compute);
  report->Set("serving.demand_stall_s", fmoe.breakdown.demand_stall);
  report->Set("serving.layer_overhead_s", fmoe.breakdown.layer_overhead);
  // Offline requests never queue: the test split is served back to back, closed loop.
  std::vector<double> queue_wait;
  if (spec.online) {
    for (const fmoe::RequestMetrics& r : fmoe.completed) {
      queue_wait.push_back(r.QueueingDelay());
    }
  }
  report->Set("serving.queue_wait_p50_s", fmoe::Percentile(queue_wait, 50.0));
  report->Set("serving.queue_wait_p90_s", fmoe::Percentile(queue_wait, 90.0));
  report->Set("serving.batch_occupancy_mean", spec.online ? fmoe.batch_occupancy : 1.0);
  report->Set("serving.admitted", as_double(fmoe.arrived - fmoe.shed));
  report->Set("serving.shed", as_double(fmoe.shed));
  const fmoe::DeferredPipelineStats& d = fmoe.deferred;
  report->Set("serving.deferred_published", as_double(d.published));
  report->Set("serving.deferred_applied_ratio",
              Ratio(as_double(d.applied), as_double(d.published)));
  report->Set("serving.deferred_superseded", as_double(d.superseded));
  report->Set("serving.deferred_dropped", as_double(d.dropped));
  report->Set("serving.deferred_queue_wait_s", d.queue_wait_s);
  report->Set("serving.deferred_decision_latency_s", d.decision_latency_s);

  report->Set("core.iteration_start_s", span(Span::kIterationStart));
  report->Set("core.gate_output_s", span(Span::kGateOutput));
  report->Set("core.iteration_end_s", span(Span::kIterationEnd));
  report->Set("core.apply_s", span(Span::kApply));
  report->Set("core.policy_self_s", policy_self_s);
  report->Set("core.prefetch_requests", as_double(fmoe.prefetch_requests));
  report->Set("core.prefetch_precision", fmoe.prefetch_precision);
  report->Set("core.store_records", as_double(fmoe.store_records));
  report->Set("core.store_mib", as_double(fmoe.store_bytes) / (1024.0 * 1024.0));
  report->Set("core.sync_overhead_s", fmoe.breakdown.TotalSyncOverhead());
  double async_work = 0.0;
  for (const double seconds : fmoe.breakdown.async_work) {
    async_work += seconds;
  }
  report->Set("core.async_work_s", async_work);

  report->Set("moe.gate_prefill_s", gate.prefill_s);
  report->Set("moe.gate_decode_s", gate.decode_s);
  report->Set("moe.gate_calls", as_double(gate.calls));

  report->Set("cache.insertions", as_double(cache.insertions));
  report->Set("cache.evictions", as_double(cache.evictions));
  report->Set("cache.rejected_insertions", as_double(cache.rejected_insertions));
  report->Set("cache.victim_picks", as_double(cache.victim_picks));
  report->Set("cache.heap_pops", as_double(cache.heap_pops));
  report->Set("cache.heap_pushes", as_double(cache.heap_pushes));
  report->Set("cache.heap_rebuilds", as_double(cache.heap_rebuilds));
  report->Set("cache.heap_pops_per_pick",
              Ratio(as_double(cache.heap_pops), as_double(cache.victim_picks)));
  report->Set("cache.order_oracle_rebuilds", as_double(cache.order_oracle_rebuilds));

  const LinkCounts& link = fmoe.link;
  report->Set("memsim.prefetch_transfers", as_double(link.prefetch_transfers));
  report->Set("memsim.demand_transfers", as_double(link.demand_transfers));
  report->Set("memsim.prefetch_gib", as_double(link.prefetch_bytes) / kGiB);
  report->Set("memsim.demand_gib", as_double(link.demand_bytes) / kGiB);
  report->Set("memsim.link_busy_s", link.busy_s);
  report->Set("memsim.link_utilization",
              Ratio(link.busy_s, (fmoe.window_end - fmoe.window_start) * fmoe.devices));
  report->Set("memsim.demand_wait_s", link.demand_wait_s);

  const fmoe::StallAttribution& stall = traced.Fmoe().stall;
  report->Set("obs.stall_never_prefetched_s", stall.seconds[0]);
  report->Set("obs.stall_in_flight_s", stall.seconds[1]);
  report->Set("obs.stall_evicted_before_use_s", stall.seconds[2]);
  report->Set("obs.stall_never_prefetched_misses", as_double(stall.misses[0]));
  report->Set("obs.stall_in_flight_misses", as_double(stall.misses[1]));
  report->Set("obs.stall_evicted_before_use_misses", as_double(stall.misses[2]));

  report->Set("oracle.report_s", oracle_s);
  report->Set("oracle.pct_of_optimum", fmoe.oracle.pct_of_clairvoyant);
  report->Set("oracle.stall_s", fmoe.oracle.oracle_stall_s);
  report->Set("oracle.misses", as_double(fmoe.oracle.oracle_misses));

  // Wall seconds by layer, for people. Engine self time holds the gate, the cache, the links
  // and the scheduler; the gate replay estimates the moe share and the rest is shown as
  // serving. The fMoE store share is its three search/insert hooks.
  const double store_s = fmoe.span_s[static_cast<size_t>(Span::kIterationStart)] +
                         fmoe.span_s[static_cast<size_t>(Span::kGateOutput)] +
                         fmoe.span_s[static_cast<size_t>(Span::kIterationEnd)];
  const double gate_s = gate.prefill_s + gate.decode_s;
  std::printf("layer-split harness=%.3fs serving(+cache+memsim)=%.3fs moe=%.3fs core=%.3fs "
              "(fMoE store hooks %.3fs) obs=%.3fs oracle=%.3fs\n",
              plain.SetupSeconds(), engine_self_s - gate_s, gate_s, policy_self_s, store_s,
              traced.ServeSeconds() - probed.ServeSeconds(), oracle_s);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void PrintProvenance(const Args& args, const WorkloadSpec& spec, int reps) {
  const fmoe::ExperimentOptions& o = spec.options;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string systems;
  for (const std::string& name : spec.systems) {
    systems += (systems.empty() ? "" : ",") + name;
  }
  std::printf(
      "provenance {\"source\": %s, \"build_type\": %s, \"release_build\": %s, \"simd\": %s, "
      "\"compiler\": %s, \"nproc\": %ld, \"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %s, \"repetitions\": %d, \"systems\": %s, \"model\": %s, "
      "\"dataset\": %s, \"history_requests\": %zu, \"test_requests\": %zu, "
      "\"cache_fraction\": %g, \"store_capacity\": %zu, \"max_decode_tokens\": %d, "
      "\"prefetch_distance\": %d, \"gpu_count\": %d, \"matcher_latency_scale\": %g, "
      "\"arrivals\": %zu, \"arrival_rate\": %g, \"max_batch_size\": %d, \"admission\": %s, "
      "\"slo_s\": %g, \"search_threads\": 1}\n",
      JsonString(args.source_id).c_str(), JsonString(build_type).c_str(),
      build_type == "Release" ? "true" : "false", JsonString(fmoe::SimdLevelName()).c_str(),
      JsonString(__VERSION__).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(spec.name).c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.tiny ? "true" : "false", reps, JsonString(systems).c_str(),
      JsonString(o.model.name).c_str(), JsonString(o.dataset.name).c_str(),
      spec.online ? size_t{0} : o.history_requests, spec.online ? size_t{0} : o.test_requests,
      o.cache_fraction, o.store_capacity, o.max_decode_tokens, o.prefetch_distance, o.gpu_count,
      o.matcher_latency_scale, spec.online ? spec.arrivals : size_t{0},
      spec.online ? spec.trace.mean_arrival_rate : 0.0, spec.online ? spec.sched.max_batch_size : 1,
      JsonString(spec.online ? fmoe::AdmissionPolicyName(spec.sched.admission.policy) : "none")
          .c_str(),
      spec.online ? spec.sched.admission.slo_sec : 0.0);
  if (build_type != "Release") {
    std::printf("WARNING: %s build; wall-clock numbers are not comparable to Release ones\n",
                build_type.c_str());
  }
}

void ListMetrics() {
  auto print = [](const char* kind, const auto& defs) {
    for (const MetricDef& def : defs) {
      std::printf("%s %s %s %s\n", kind, def.name, def.unit,
                  def.higher_is_better ? "higher" : "lower");
    }
  };
  print("end_to_end", kEndToEnd);
  print("per_layer", kPerLayer);
  print("printed_only", kPerLayerPrintedOnly);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.list_metrics) {
    ListMetrics();
    return 0;
  }
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, args.seed, args.tiny, &spec)) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const Clock::time_point run_start = Clock::now();
  std::vector<std::string> problems;
  auto note = [&](const std::string& what, const std::vector<std::string>& found) {
    for (const std::string& f : found) {
      problems.push_back(what + ": " + f);
    }
  };
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t refused = 0;
  auto count = [&](const PassResult& pass) {
    for (const SystemRun& run : pass.systems) {
      attempted += run.arrived;
      succeeded += run.completed.size();
      refused += run.shed;
    }
  };

  // The library's own runner and the hand-assembled driver agree on a small configuration.
  WorkloadSpec small;
  MakeWorkload(args.workload, args.seed, /*tiny=*/true, &small);
  const PassResult small_pass = RunPass(small, Observers::kNone);
  note("runner equivalence (tiny)", RunnerMismatches(small, small_pass));

  Report report;
  int reps = 0;
  if (args.trace) {
    const PassResult plain = RunPass(spec, Observers::kNone);
    const PassResult probed = RunPass(spec, Observers::kProbes);
    const PassResult traced = RunPass(spec, Observers::kTrace);
    reps = 1;
    const std::string reference = VirtualFingerprint(plain);
    for (const PassResult* pass : {&plain, &probed, &traced}) {
      count(*pass);
      note("conservation", ConservationViolations(spec, *pass));
      if (VirtualFingerprint(*pass) != reference) {
        problems.push_back("observers changed a virtual-time result");
      }
    }
    AddLayerMetrics(spec, plain, probed, traced, &report);
  } else {
    // Instance i of the workload uses SubSeed(seed, i). The first spec.instances repetitions
    // serve each instance once and pool their requests; later ones cycle through the
    // instances again for more wall-clock samples and must reproduce them bit for bit.
    std::vector<double> setup_s;
    std::vector<double> tokens_per_s;
    std::vector<std::string> fingerprints;
    std::vector<PassResult> instances;
    while (true) {
      const Clock::time_point rep_start = Clock::now();
      const int instance = reps % spec.instances;
      WorkloadSpec instance_spec = spec;
      instance_spec.options.seed = SubSeed(args.seed, instance);
      PassResult pass = RunPass(instance_spec, Observers::kNone);
      count(pass);
      note("conservation", ConservationViolations(instance_spec, pass));
      const std::string print = VirtualFingerprint(pass);
      if (reps < spec.instances) {
        fingerprints.push_back(print);
      } else if (print != fingerprints[static_cast<size_t>(instance)]) {
        problems.push_back("repetition " + std::to_string(reps) +
                           " simulated different virtual-time results");
      }
      setup_s.push_back(pass.SetupSeconds());
      tokens_per_s.push_back(Ratio(static_cast<double>(pass.Tokens()), pass.ServeSeconds()));
      std::printf("repetition %d: instance %d, setup %.4fs, serving %.3fs, %.1f tok/s\n", reps,
                  instance, setup_s.back(), pass.ServeSeconds(), tokens_per_s.back());
      if (reps < spec.instances) {
        instances.push_back(std::move(pass));
      }
      ++reps;
      const double elapsed = Since(run_start);
      if (reps >= spec.instances && elapsed >= args.seconds) {
        break;
      }
      if (elapsed + Since(rep_start) > kRunBudgetSeconds) {
        break;
      }
    }
    if (instances.size() < static_cast<size_t>(spec.instances)) {
      problems.push_back("run budget exhausted before every instance was served");
    }
    AddServingQuality(spec, instances, &report);
    report.Set("sim_tokens_per_s", Median(tokens_per_s));
    report.Set("setup_s", Median(setup_s));
    report.Set("peak_rss_mib", PeakRssMib());
  }

  PrintProvenance(args, spec, reps);
  std::printf("requests: sent %llu, succeeded %llu, refused by admission %llu, failed %zu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(refused), problems.size());
  std::string metrics;
  if (args.trace) {
    metrics = report.Render(kPerLayer, &problems);
    report.Render(kPerLayerPrintedOnly, &problems);
  } else {
    metrics = report.Render(kEndToEnd, &problems);
  }
  for (const std::string& problem : problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("wall %.2fs\n", Since(run_start));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, \"metrics\": {%s}}\n",
              problems.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              problems.size(), metrics.c_str());
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
