// The benchmark's named workloads and the hand-assembled driver that serves them.
//
// The driver calls only public functions, in the order the library's own runners do:
// WorkloadGenerator / TraceGenerator -> MakeSystem -> ServingEngine -> WarmupWithHistory, then
// ServeBatch (offline) or ContinuousBatchScheduler::Run (online). Timing it from outside lets
// the benchmark split wall time into input generation, system build, warmup and serving, and
// probed and traced passes add observers around the same calls.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/control_signals.h"
#include "src/oracle/oracle.h"
#include "src/serving/metrics.h"
#include "src/serving/scheduler.h"
#include "perfbench/src/probe.h"

namespace perfbench {

// What a pass attaches to each engine. Every observer is pure: all three passes of one seed
// must simulate bit-identical virtual-time results.
enum class Observers {
  kNone,    // Plain run: end-to-end metrics are measured on these.
  kProbes,  // probe.h's timing decorator and an oracle tape; after serving, the gate replay and
            // the oracle report. Per-layer wall time comes from this pass.
  kTrace,   // kProbes' observers plus a TraceRecorder, for stall attribution and the cost of
            // full tracing; no gate replay or oracle report.
};

struct WorkloadSpec {
  std::string name;
  bool online = false;
  std::vector<std::string> systems;  // Served one after another; "fMoE" is always among them.
  // Model, dataset, 7:3 split sizes, cache, store, decode cap, matcher and seed. The same
  // struct drives the library's runners in the runner-equivalence check.
  fmoe::ExperimentOptions options;
  // Online only: the arrival schedule and the continuous-batching scheduler.
  fmoe::TraceProfile trace;
  size_t arrivals = 0;
  fmoe::SchedulerOptions sched;
  // Shape check: warmup must leave fMoE's map store at capacity.
  bool store_full_after_warmup = false;
  // Untraced runs serve this many instances of the workload, each generated from its own
  // sub-seed (SubSeed), and pool their requests: more requests per seed, steadier percentiles.
  int instances = 3;
};

// Seed of instance `index` of a run with seed `seed`; instance 0 uses `seed` itself.
uint64_t SubSeed(uint64_t seed, int index);

std::vector<std::string> WorkloadNames();

// `tiny` swaps in TinyTestConfig() and a handful of requests (smoke tests and the
// runner-equivalence check). Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny, WorkloadSpec* spec);

// Work counters of one engine over the measured window (deltas of cumulative counters).
struct CacheCounts {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected_insertions = 0;
  uint64_t victim_picks = 0;
  uint64_t heap_pops = 0;
  uint64_t heap_pushes = 0;
  uint64_t heap_rebuilds = 0;
  uint64_t order_oracle_rebuilds = 0;
};
struct LinkCounts {  // Summed over every device's host link.
  uint64_t prefetch_transfers = 0;
  uint64_t demand_transfers = 0;
  uint64_t prefetch_bytes = 0;
  uint64_t demand_bytes = 0;
  double busy_s = 0.0;
  double demand_wait_s = 0.0;
};

// Everything observed while serving one system.
struct SystemRun {
  std::string system;
  // Wall clock.
  double build_s = 0.0;   // MakeSystem + engine construction.
  double warmup_s = 0.0;  // WarmupWithHistory (an empty history on the cold-start workload).
  double serve_s = 0.0;   // The measured serving phase.

  // Virtual-time outcome of the measured window.
  std::vector<fmoe::Request> served;  // Requests that ran to completion, in completion order.
  std::vector<fmoe::RequestMetrics> completed;  // Parallel to `served`.
  double window_start = 0.0;
  double window_end = 0.0;
  size_t arrived = 0;
  size_t shed = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t iterations = 0;
  uint64_t prefill_iterations = 0;
  double batch_occupancy = 0.0;  // Online only.
  fmoe::LatencyBreakdown breakdown;
  fmoe::DeferredPipelineStats deferred;
  uint64_t pending_before = 0;  // Deferred jobs queued when the window opened / closed.
  uint64_t pending_after = 0;
  fmoe::SchedulerStats sched_stats;
  fmoe::AdmissionCounters admission;
  CacheCounts cache;
  LinkCounts link;
  int devices = 0;
  bool has_store = false;
  size_t store_records = 0;
  size_t store_capacity = 0;
  size_t store_bytes = 0;
  size_t store_records_after_warmup = 0;
  // The ExperimentResult the library's runner would report for this engine.
  fmoe::ExperimentResult runner_view;

  // Probed and traced passes only (engine self time is span_s[Span::kEngine]).
  Observers observers = Observers::kNone;
  std::array<double, static_cast<size_t>(Span::kCount)> span_s = {};
  uint64_t prefetch_requests = 0;
  double prefetch_precision = 0.0;
  uint64_t tape_accesses = 0;
  uint64_t tape_hits = 0;
  GateReplay gate;              // kProbes only.
  fmoe::OracleReport oracle;    // kProbes only.
  double oracle_s = 0.0;        // kProbes only.
  fmoe::StallAttribution stall;  // kTrace only.

  uint64_t Tokens() const;  // Output tokens, prefill counted as one.
};

struct PassResult {
  double workload_gen_s = 0.0;
  std::vector<SystemRun> systems;

  double SetupSeconds() const;  // Input generation + every system's build and warmup.
  double ServeSeconds() const;
  uint64_t Tokens() const;
  const SystemRun& Fmoe() const;
};

// Serves every system of `spec` once with `observers` attached.
PassResult RunPass(const WorkloadSpec& spec, Observers observers);

// Every virtual-time number a pass produced, rendered bit-exactly; equal strings mean the
// two passes simulated the same thing.
std::string VirtualFingerprint(const PassResult& pass);

// Conservation checks on one pass; returns one message per violation.
std::vector<std::string> ConservationViolations(const WorkloadSpec& spec, const PassResult& pass);

// Serves `spec` through the library's runner (RunOffline / RunScheduledReplay) and compares
// it field for field with the hand-assembled pass; returns one message per differing field.
std::vector<std::string> RunnerMismatches(const WorkloadSpec& spec, const PassResult& pass);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
