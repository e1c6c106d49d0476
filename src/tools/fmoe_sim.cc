// fmoe_sim — command-line driver for the fMoE serving simulator.
//
// Runs the paper's offline (7:3), online (in-order arrivals on one or more replicas) or
// scheduled (continuous batching) protocol for any registered system and prints a table,
// JSON, or CSV. Arrivals come from the synthetic trace or a --trace-csv file. The systems run
// as a declarative ExperimentPlan through the deterministic parallel runner: --jobs only
// changes wall-clock time, never output.
// Examples:
//
//   fmoe_sim --model mixtral --system fMoE
//   fmoe_sim --model qwen --system all --format csv --jobs 4
//   fmoe_sim --model phi --mode online --requests 64 --trace-rate 0.1 --format json
//   fmoe_sim --model tiny --mode scheduled --trace-csv trace.csv --admission-policy gradient
//   fmoe_sim --model mixtral --system fMoE --save-store /tmp/mixtral.store
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/core/fmoe_policy.h"
#include "src/core/map_store_io.h"
#include "src/harness/experiment.h"
#include "src/harness/plan.h"
#include "src/harness/report.h"
#include "src/harness/runner.h"
#include "src/harness/systems.h"
#include "src/workload/trace_io.h"
#include "src/serving/engine.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace {

using namespace fmoe;

bool ResolveModel(const std::string& name, ModelConfig* model) {
  if (name == "mixtral") {
    *model = MixtralConfig();
  } else if (name == "qwen") {
    *model = QwenMoeConfig();
  } else if (name == "phi") {
    *model = PhiMoeConfig();
  } else if (name == "tiny") {
    *model = TinyTestConfig();
  } else {
    return false;
  }
  return true;
}

bool ResolveDataset(const std::string& name, DatasetProfile* dataset) {
  if (name == "lmsys") {
    *dataset = LmsysLikeProfile();
  } else if (name == "sharegpt") {
    *dataset = ShareGptLikeProfile();
  } else {
    return false;
  }
  return true;
}

// Prints an `error:` line saying what `--flag` must be, unless `ok`; returns `ok`.
bool Require(bool ok, const char* flag, const char* requirement) {
  if (!ok) {
    std::cerr << "error: --" << flag << " must be " << requirement << "\n";
  }
  return ok;
}

// Reads integer flag `name` into `*out` when its int64 value is at least `min` and fits in T,
// checked before the cast; otherwise prints an `error:` line and returns false.
template <typename T>
bool ReadIntFlag(const FlagParser& flags, const char* name, int64_t min, T* out) {
  const int64_t value = flags.GetInt(name);
  if (value < min) {
    std::cerr << "error: --" << name << " must be >= " << min << "\n";
    return false;
  }
  if (!std::in_range<T>(value)) {
    std::cerr << "error: --" << name << " must be <= " << std::numeric_limits<T>::max() << "\n";
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

void PrintTable(const std::vector<ExperimentResult>& results, std::ostream& out) {
  AsciiTable table({"system", "TTFT (ms)", "TPOT (ms)", "hit rate (%)", "e2e (s)",
                    "cache used/cap (GiB)"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.system, AsciiTable::Num(r.mean_ttft * 1e3, 1),
                  AsciiTable::Num(r.mean_tpot * 1e3, 2), AsciiTable::Num(r.hit_rate * 100, 1),
                  AsciiTable::Num(r.mean_e2e, 2),
                  AsciiTable::Num(r.cache_used_gb, 1) + " / " +
                      AsciiTable::Num(r.cache_capacity_gb, 1)});
  }
  table.Print(out);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("fmoe_sim", "fMoE expert-offloading serving simulator");
  flags.AddString("model", "mixtral", "model preset: mixtral | qwen | phi | tiny");
  flags.AddString("dataset", "lmsys", "prompt dataset: lmsys | sharegpt");
  flags.AddString("system", "fMoE",
                  "system to run, 'all' for the paper's five, or any registry name "
                  "(see src/harness/systems.h)");
  flags.AddString("mode", "offline",
                  "protocol: offline (7:3 split) | online (arrivals served in order on "
                  "--replicas engines) | scheduled (continuous batching through the "
                  "admission-controlled scheduler)");
  flags.AddInt("history", 80, "history requests used to warm the policy (offline mode)");
  flags.AddInt("requests", 24, "measured requests (test split or trace length)");
  flags.AddInt("batch", 1, "lockstep batch size (offline mode)");
  flags.AddInt("max-batch", 4, "scheduled mode: continuous-batching lockstep batch limit");
  flags.AddString("discipline", "fcfs",
                  "scheduled mode queue discipline: fcfs | sjf (shortest job first)");
  flags.AddString("admission-policy", "open-loop",
                  "admission control for online (one controller per replica) and scheduled "
                  "runs: open-loop (fixed knobs, never rejects; the byte-identical default) | "
                  "gradient (closed-loop AIMD on live stall-attribution signals; DESIGN.md 5j)");
  flags.AddDouble("slo-ms", 0.0,
                  "end-to-end latency objective in milliseconds; the gradient policy sheds "
                  "queued requests whose wait already burns the budget (0 = no shedding)");
  flags.AddDouble("admission-window-s", 0.5,
                  "stall window in virtual seconds for the gradient controller (> 0)");
  flags.AddDouble("admission-gain", 0.5,
                  "AIMD gain for the gradient controller, in (0, 1) (multiplicative decrease "
                  "on cache thrash, additive increase on recovery)");
  flags.AddDouble("admission-update-s", 0.05,
                  "gradient controller update cadence in virtual seconds (>= 0)");
  flags.AddInt("distance", 3, "prefetch distance d in layers");
  flags.AddInt("max-decode", 32,
               "offline mode: cap on decode tokens per request (0 = dataset default); online "
               "and scheduled arrivals take the trace's lengths");
  flags.AddInt("store-capacity", 512, "fMoE Expert Map Store capacity");
  flags.AddString("map-precision", "fp32",
                  "Expert Map Store column precision: fp32 | fp16 | int8 (fMoE-family "
                  "systems; fp16/int8 shrink store memory 2x/4x at bounded match error)");
  flags.AddInt("gpus", 6, "number of GPUs (parallel host links)");
  flags.AddDouble("cache-gb", 0.0, "expert cache budget in GiB (0 = use --cache-fraction)");
  flags.AddDouble("cache-fraction", 0.22, "cache budget as a fraction of all expert bytes");
  flags.AddDouble("trace-rate", 0.08, "mean request arrival rate for online mode (req/s)");
  flags.AddDouble("matcher-latency-scale", 0.0,
                  "background matcher-worker latency multiplier (0 = instantaneous policy "
                  "decisions, 1 = modeled matcher speed)");
  flags.AddInt("matcher-queue-depth", 32, "pending deferred-job bound (oldest dropped past it)");
  flags.AddBool("nvme-backing", false,
                "experts' off-GPU home is NVMe (multi-tier store; DESIGN.md 5h). Off replays "
                "the legacy two-tier GPU<->host path bit-identically");
  flags.AddDouble("host-capacity-gb", 0.0,
                  "host-RAM staging pool budget in GiB (implies --nvme-backing when > 0; 0 "
                  "with --nvme-backing = two-tier GPU<->NVMe)");
  flags.AddDouble("nvme-gbps", 3.5, "NVMe link bandwidth in GB/s");
  flags.AddDouble("nvme-latency-us", 80.0, "NVMe link fixed latency in microseconds");
  flags.AddBool("direct-nvme-gpu", false,
                "allow the explicit NVMe->GPU direct path (default: all GPU fills stage "
                "through host RAM)");
  flags.AddString("host-policy", "LRU", "host-pool eviction policy: LRU | LFU | fMoE-PriorityLFU");
  flags.AddDouble("kv-bytes-per-token", 0.0,
                  "GPU bytes reserved per in-flight token (KV-cache pressure shrinking the "
                  "effective expert budget; 0 disables)");
  flags.AddInt("host-stage-candidates", 0,
               "fMoE-family tier-aware prefetch: top-N scored-but-not-selected map candidates "
               "staged NVMe->host per matched layer (multi-tier runs only)");
  flags.AddInt("map-shards", 1,
               "semantic-cluster shards for the fMoE Expert Map Store (DESIGN.md 5i); 1 "
               "replays the unsharded store byte-identically");
  flags.AddInt("replicas", 1,
               "serving-engine replicas (online mode only): arrivals are routed across them by "
               "--router-policy, each replica with its own admission controller");
  flags.AddString("router-policy", "round-robin",
                  "cluster request router: round-robin | least-loaded | semantic-affinity "
                  "(used when --replicas > 1)");
  flags.AddString("cluster-memory", "replicate",
                  "per-replica expert-cache budget: replicate (full budget each) | partition "
                  "(single-node budget split across replicas)");
  flags.AddInt("seed", 42, "random seed (all components are deterministic given this)");
  flags.AddInt("jobs", 1,
               "worker threads when running several systems (0 = one per hardware thread); "
               "output is byte-identical for any value");
  flags.AddString("format", "table", "output format: table | json | csv");
  flags.AddBool("latencies", false, "include per-request latencies in JSON output");
  flags.AddString("save-store", "", "after an fMoE run, save its Expert Map Store here");
  flags.AddString("trace-csv", "",
                  "online / scheduled mode: serve the requests in this CSV instead of the "
                  "synthetic trace (columns: request_id,arrival_time_s,prompt_tokens,"
                  "decode_tokens[,cluster,seed])");
  flags.AddString("export-trace", "",
                  "write the generated online trace to this CSV and exit (for editing/replay)");
  flags.AddString("trace-out", "",
                  "write a Chrome trace-event JSON (Perfetto-loadable) of one system's run "
                  "here; stall attribution goes to stderr");
  flags.AddInt("trace-task", 0, "index of the system/task --trace-out covers (default 0)");
  flags.AddBool("oracle", false,
                "run the clairvoyant oracle on every system (DESIGN.md 5k): adds an "
                "optimality-gap block to JSON output plus a gap table on stderr");
  flags.AddString("oracle-out", "",
                  "write a compact per-system optimality-gap JSON here (implies --oracle)");
  flags.AddString("output", "", "write results to this file instead of stdout");

  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    if (flags.help_requested()) {
      std::cout << flags.Usage();
      return 0;
    }
    std::cerr << "error: " << error << "\n\n" << flags.Usage();
    return 1;
  }

  ExperimentOptions options;
  if (!ResolveModel(flags.GetString("model"), &options.model)) {
    std::cerr << "error: unknown model '" << flags.GetString("model") << "'\n";
    return 1;
  }
  if (!ResolveDataset(flags.GetString("dataset"), &options.dataset)) {
    std::cerr << "error: unknown dataset '" << flags.GetString("dataset") << "'\n";
    return 1;
  }
  // A byte budget in GiB converts to uint64 bytes only below 2^34 GiB.
  constexpr double kMaxGib = 0x1p34;
  const double cache_gb = flags.GetDouble("cache-gb");
  options.cache_fraction = flags.GetDouble("cache-fraction");
  const double host_capacity_gb = flags.GetDouble("host-capacity-gb");
  options.matcher_latency_scale = flags.GetDouble("matcher-latency-scale");
  options.tier.nvme_link.bandwidth_bytes_per_sec = flags.GetDouble("nvme-gbps") * 1e9;
  options.tier.nvme_link.fixed_latency_sec = flags.GetDouble("nvme-latency-us") * 1e-6;
  SchedulerOptions sched;
  sched.admission.slo_sec = flags.GetDouble("slo-ms") * 1e-3;
  sched.admission.window_sec = flags.GetDouble("admission-window-s");
  sched.admission.gain = flags.GetDouble("admission-gain");
  sched.admission.update_period_sec = flags.GetDouble("admission-update-s");
  int jobs = 1;
  if (!ReadIntFlag(flags, "history", 0, &options.history_requests) ||
      !ReadIntFlag(flags, "requests", 0, &options.test_requests) ||
      !ReadIntFlag(flags, "batch", 1, &options.batch_size) ||
      !ReadIntFlag(flags, "distance", 1, &options.prefetch_distance) ||
      !ReadIntFlag(flags, "max-decode", 0, &options.max_decode_tokens) ||
      !ReadIntFlag(flags, "store-capacity", 1, &options.store_capacity) ||
      !ReadIntFlag(flags, "gpus", 1, &options.gpu_count) ||
      !ReadIntFlag(flags, "matcher-queue-depth", 1, &options.matcher_queue_depth) ||
      !ReadIntFlag(flags, "host-stage-candidates", 0, &options.host_stage_candidates) ||
      !ReadIntFlag(flags, "map-shards", 1, &options.map_shards) ||
      !ReadIntFlag(flags, "replicas", 1, &options.replicas) ||
      !ReadIntFlag(flags, "max-batch", 1, &sched.max_batch_size) ||
      !ReadIntFlag(flags, "jobs", 0, &jobs) ||
      !Require(cache_gb >= 0.0 && cache_gb < kMaxGib, "cache-gb", "in [0, 2^34)") ||
      !Require(options.cache_fraction >= 0.0 && options.cache_fraction <= 1.0, "cache-fraction",
               "in [0, 1]") ||
      !Require(host_capacity_gb >= 0.0 && host_capacity_gb < kMaxGib, "host-capacity-gb",
               "in [0, 2^34)") ||
      !Require(options.matcher_latency_scale >= 0.0, "matcher-latency-scale", ">= 0") ||
      !Require(options.tier.nvme_link.bandwidth_bytes_per_sec > 0.0, "nvme-gbps", "> 0") ||
      !Require(options.tier.nvme_link.fixed_latency_sec >= 0.0, "nvme-latency-us", ">= 0") ||
      !Require(sched.admission.window_sec > 0.0, "admission-window-s", "> 0") ||
      !Require(sched.admission.gain > 0.0 && sched.admission.gain < 1.0, "admission-gain",
               "in (0, 1)") ||
      !Require(sched.admission.update_period_sec >= 0.0, "admission-update-s", ">= 0")) {
    return 1;
  }
  if (!ParseMapPrecision(flags.GetString("map-precision"), &options.map_precision)) {
    std::cerr << "error: unknown map precision '" << flags.GetString("map-precision")
              << "' (expected fp32 | fp16 | int8)\n";
    return 1;
  }
  options.cache_bytes = static_cast<uint64_t>(cache_gb * (1ULL << 30));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.tier.nvme_backing = flags.GetBool("nvme-backing") || host_capacity_gb > 0.0;
  options.tier.host_capacity_bytes =
      static_cast<uint64_t>(host_capacity_gb * static_cast<double>(1ULL << 30));
  options.tier.allow_direct_nvme_gpu = flags.GetBool("direct-nvme-gpu");
  options.tier.host_policy = flags.GetString("host-policy");
  if (EvictionRule rule; !ParseEvictionRule(options.tier.host_policy, &rule)) {
    std::cerr << "error: unknown host policy '" << options.tier.host_policy
              << "' (expected LRU | LFU | fMoE-PriorityLFU)\n";
    return 1;
  }
  options.tier.kv_bytes_per_token = flags.GetDouble("kv-bytes-per-token");
  if (!ParseRouterPolicy(flags.GetString("router-policy"), &options.router_policy)) {
    std::cerr << "error: unknown router policy '" << flags.GetString("router-policy")
              << "' (expected round-robin | least-loaded | semantic-affinity)\n";
    return 1;
  }
  if (!ParseClusterMemoryMode(flags.GetString("cluster-memory"), &options.cluster_memory)) {
    std::cerr << "error: unknown cluster memory mode '" << flags.GetString("cluster-memory")
              << "' (expected replicate | partition)\n";
    return 1;
  }
  if (!ParseAdmissionPolicy(flags.GetString("admission-policy"), &sched.admission.policy)) {
    std::cerr << "error: unknown admission policy '" << flags.GetString("admission-policy")
              << "' (expected open-loop | gradient)\n";
    return 1;
  }
  const std::string discipline = flags.GetString("discipline");
  if (discipline == "sjf") {
    sched.discipline = SchedulerOptions::QueueDiscipline::kShortestJobFirst;
  } else if (discipline != "fcfs") {
    std::cerr << "error: unknown discipline '" << discipline << "' (expected fcfs | sjf)\n";
    return 1;
  }

  std::vector<std::string> systems;
  if (flags.GetString("system") == "all") {
    systems = PaperSystemNames();
  } else if (IsSystemName(flags.GetString("system"))) {
    systems.push_back(flags.GetString("system"));
  } else {
    std::cerr << "error: unknown system '" << flags.GetString("system")
              << "' (expected all or a name from src/harness/systems.h)\n";
    return 1;
  }

  const std::string mode_name = flags.GetString("mode");
  ExperimentMode mode = ExperimentMode::kOffline;
  if (mode_name == "online") {
    mode = ExperimentMode::kOnline;
  } else if (mode_name == "scheduled") {
    mode = ExperimentMode::kScheduled;
  } else if (mode_name != "offline") {
    std::cerr << "error: unknown mode '" << mode_name << "'\n";
    return 1;
  }
  if (options.replicas > 1 && mode != ExperimentMode::kOnline) {
    std::cerr << "error: --replicas > 1 needs --mode online (the cluster protocol routes an "
                 "arrival trace)\n";
    return 1;
  }

  TraceProfile trace;
  trace.mean_arrival_rate = flags.GetDouble("trace-rate");

  if (!flags.GetString("export-trace").empty()) {
    TraceGenerator generator(trace, options.dataset, options.seed);
    const std::vector<Request> requests = generator.Generate(options.test_requests);
    const TraceIoResult io = WriteTraceCsvToFile(requests, flags.GetString("export-trace"));
    if (!io.ok) {
      std::cerr << "error: " << io.error << "\n";
      return 1;
    }
    std::cerr << "wrote " << io.rows << " requests to " << flags.GetString("export-trace")
              << "\n";
    return 0;
  }

  // Custom arrivals: load the CSV once; every system's task shares the list read-only.
  std::shared_ptr<const std::vector<Request>> csv_requests;
  const std::string trace_csv = flags.GetString("trace-csv");
  if (!trace_csv.empty()) {
    if (mode == ExperimentMode::kOffline) {
      std::cerr << "error: --trace-csv needs --mode online or scheduled (the offline protocol "
                   "splits a generated workload into history and test)\n";
      return 1;
    }
    auto requests = std::make_shared<std::vector<Request>>();
    const TraceIoResult io = ReadTraceCsvFromFile(trace_csv, options.dataset, requests.get());
    if (!io.ok) {
      std::cerr << "error: reading trace failed: " << io.error << "\n";
      return 1;
    }
    std::cerr << "replaying " << io.rows << " requests from " << trace_csv << "\n";
    csv_requests = std::move(requests);
  }

  ExperimentPlan plan(options.seed);
  for (const std::string& system : systems) {
    ExperimentTask task;
    task.system = system;
    task.options = options;
    task.mode = mode;
    task.arrivals = csv_requests;
    task.trace = trace;
    task.request_count = options.test_requests;
    task.scheduler = sched;
    task.tags = {"system=" + system};
    plan.Add(std::move(task));
  }
  ObservedRunOptions observers;
  observers.jobs = jobs;
  observers.trace_out = flags.GetString("trace-out");
  observers.trace_task = flags.GetInt("trace-task");
  observers.oracle_out = flags.GetString("oracle-out");
  observers.oracle = flags.GetBool("oracle") || !observers.oracle_out.empty();
  // The gap table goes to stderr (like the stall report) so --format stdout is unchanged by
  // everything except the report's own oracle block.
  const std::optional<std::vector<ExperimentResult>> results =
      RunObservedPlan(plan, observers, "fmoe_sim", std::cerr);
  if (!results) {
    return 1;
  }

  // Optional store export: re-run fMoE through an engine we keep, then persist its store.
  const std::string store_path = flags.GetString("save-store");
  if (!store_path.empty()) {
    SystemSpec spec = MakeSystem("fMoE", options.model, options.prefetch_distance,
                                 options.store_capacity, options.low_precision_threshold,
                                 options.map_precision, options.host_stage_candidates,
                                 options.map_shards);
    ServingEngine engine(options.model, MakeEngineConfig(options, spec), spec.policy.get());
    WorkloadGenerator generator(options.dataset, options.seed);
    std::vector<Request> history = generator.Generate(options.history_requests);
    for (Request& request : history) {
      if (options.max_decode_tokens > 0) {
        request.decode_tokens = std::min(request.decode_tokens, options.max_decode_tokens);
      }
      engine.ServeRequest(request);
    }
    auto* policy = dynamic_cast<FmoePolicy*>(spec.policy.get());
    const StoreIoResult io = SaveStoreToFile(policy->store(), store_path);
    if (!io.ok) {
      std::cerr << "error: saving store failed: " << io.error << "\n";
      return 1;
    }
    std::cerr << "saved " << io.records << " expert maps (" << io.bytes << " bytes) to "
              << store_path << "\n";
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!flags.GetString("output").empty()) {
    file.open(flags.GetString("output"));
    if (!file) {
      std::cerr << "error: cannot open " << flags.GetString("output") << "\n";
      return 1;
    }
    out = &file;
  }

  const std::string format = flags.GetString("format");
  if (format == "table") {
    PrintTable(*results, *out);
  } else if (format == "json") {
    WriteResultsJson(*results, flags.GetBool("latencies"), *out);
  } else if (format == "csv") {
    WriteResultsCsv(*results, *out);
  } else {
    std::cerr << "error: unknown format '" << format << "'\n";
    return 1;
  }
  return 0;
}
