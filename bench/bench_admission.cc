// Closed-loop vs open-loop admission under burst and sustained overload (DESIGN.md §5j).
//
// Replays two adversarial arrival traces (src/workload/burst.h) through the continuous-
// batching scheduler on the fMoE system, once with the legacy open-loop admission (fixed
// batch limit, never rejects) and once with the gradient controller (AIMD batch control +
// SLO shedding on live stall-attribution signals). The run is virtual-time and
// single-seeded, so the committed BENCH_admission.json baseline is reproducible bit-for-bit.
//
// Expected shape: on the burst trace the open-loop queue balloons during each burst and its
// served-request p99 blows through the SLO; the gradient controller sheds the requests whose
// wait already burns the latency budget, so its p99 stays under the SLO at the cost of
// explicit rejections. The process exit code asserts exactly that (the CI bench-smoke
// contract): closed loop must meet the SLO on the burst trace at a strictly lower p99 than
// open loop, else exit 2.
//
// Usage: bench_admission [--small] [--out_json PATH] [bench flags; see --help]
//   --small          CI smoke configuration: shorter traces.
//   --out_json PATH  Also write the results as JSON to PATH (the BENCH_admission.json format).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/experiment.h"
#include "src/moe/model_config.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/burst.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

// End-to-end latency objective. The tiny model serves an uncontended request in ~30 ms, so
// the budget is dominated by tolerable queueing — bursts that stack tens of requests deep
// must trip the shedder.
constexpr double kSloSec = 1.0;
constexpr uint64_t kSeed = 42;

// One swept configuration; cells[i] describes plan task i.
struct Cell {
  std::string trace;
  std::string policy;
};

DatasetProfile Prompts() {
  DatasetProfile prompts = LmsysLikeProfile();
  prompts.max_decode_tokens = 16;  // Arrival lists are served as given: cap at the source.
  return prompts;
}

SchedulerOptions MakeSched(bool closed_loop) {
  SchedulerOptions sched;
  sched.max_batch_size = 4;
  if (closed_loop) {
    sched.admission.policy = AdmissionPolicyKind::kGradient;
    sched.admission.slo_sec = kSloSec;
    sched.admission.window_sec = 0.5;
    sched.admission.update_period_sec = 0.02;
  }
  return sched;
}

double P99(const std::vector<double>& latencies) {
  return latencies.empty() ? 0.0 : Percentile(latencies, 99.0);
}

double SloAttainment(const std::vector<double>& latencies) {
  if (latencies.empty()) {
    return 0.0;
  }
  size_t within = 0;
  for (const double latency : latencies) {
    within += latency <= kSloSec ? 1 : 0;
  }
  return static_cast<double>(within) / static_cast<double>(latencies.size());
}

void Declare(bool small, ExperimentPlan& plan, std::vector<Cell>* cells) {
  const size_t count = small ? 256 : 512;

  // Burst: quiet phases the engine absorbs easily (~10 req/s against ~5 ms batched service),
  // bursts far past service rate so hundreds of requests stack up within a second — deep
  // enough that draining the backlog open-loop takes multiples of the SLO.
  BurstTraceProfile burst;
  burst.base_rate = 10.0;
  burst.burst_rate = 2000.0;
  burst.period_sec = 4.0;
  burst.burst_fraction = 0.25;
  const auto burst_trace = std::make_shared<const std::vector<Request>>(
      MakeBurstTrace(burst, Prompts(), count, kSeed));
  // Overload: sustained arrivals past what the batch can serve, so queues grow unboundedly.
  const auto overload_trace = std::make_shared<const std::vector<Request>>(
      MakeOverloadTrace(1000.0, Prompts(), count, kSeed));

  using Arrivals = std::shared_ptr<const std::vector<Request>>;
  const std::vector<std::pair<std::string, Arrivals>> traces{{"burst", burst_trace},
                                                             {"overload", overload_trace}};
  for (const auto& [trace_name, arrivals] : traces) {
    for (const bool closed_loop : {false, true}) {
      const std::string policy = closed_loop ? "gradient" : "open-loop";
      ExperimentTask task;
      task.system = "fMoE";
      task.options = bench::SweepOptions(TinyTestConfig(), LmsysLikeProfile());
      task.mode = ExperimentMode::kScheduled;
      task.arrivals = arrivals;
      task.scheduler = MakeSched(closed_loop);
      task.tags = {"trace=" + trace_name, "admission=" + policy};
      plan.Add(std::move(task));
      cells->push_back({trace_name, policy});
    }
  }
}

void WriteJson(const std::vector<Cell>& cells, const std::vector<ExperimentResult>& results,
               std::ostream& out) {
  out << "{\n";
  out << "  \"description\": \"Closed-loop vs open-loop admission (DESIGN.md \\u00a75j): the "
         "continuous-batching scheduler replays square-wave burst and sustained-overload "
         "traces (src/workload/burst.h) on the fMoE system with the tiny test model, once "
         "per admission policy. Virtual-time and single-seeded, so regeneration is "
         "bit-exact. Regenerate with: build/bench/bench_admission --out_json "
         "BENCH_admission.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(TinyTestConfig().name)
      << "\", \"system\": \"fMoE\", \"slo_s\": " << kSloSec
      << ", \"max_batch_size\": " << MakeSched(false).max_batch_size
      << ", \"seed\": " << kSeed << "},\n";
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const ExperimentResult& r = results[i];
    const SchedulerStats& s = r.scheduler_stats;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"trace\": \"%s\", \"policy\": \"%s\", \"arrived\": %zu, "
                  "\"served\": %zu, \"rejected\": %zu, \"mean_e2e_s\": %.9g, "
                  "\"p99_e2e_s\": %.9g, \"slo_attainment\": %.6g, \"hit_rate\": %.6g, "
                  "\"tokens_per_s\": %.9g}",
                  c.trace.c_str(), c.policy.c_str(), s.arrived_requests, s.served_requests,
                  s.rejected_requests, r.mean_e2e, P99(r.request_latencies),
                  SloAttainment(r.request_latencies), r.hit_rate,
                  s.Throughput(r.scheduled_tokens));
    out << row << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Render(const std::vector<Cell>& cells, const std::vector<ExperimentResult>& results,
           std::ostream& out) {
  AsciiTable table({"trace", "policy", "arrived", "served", "shed", "mean e2e (s)",
                    "p99 e2e (s)", "SLO met (%)", "hit %"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const ExperimentResult& r = results[i];
    const SchedulerStats& s = r.scheduler_stats;
    table.AddRow({cells[i].trace, cells[i].policy, std::to_string(s.arrived_requests),
                  std::to_string(s.served_requests), std::to_string(s.rejected_requests),
                  AsciiTable::Num(r.mean_e2e, 2), AsciiTable::Num(P99(r.request_latencies), 2),
                  bench::Pct(SloAttainment(r.request_latencies)), bench::Pct(r.hit_rate)});
  }
  out << "Admission control under burst/overload: fMoE on " << TinyTestConfig().name
      << ", SLO " << AsciiTable::Num(kSloSec, 1) << " s, batch limit "
      << MakeSched(false).max_batch_size << "\n";
  table.Print(out);

  // The exit-code contract: closed loop meets the SLO on the burst trace, strictly below the
  // open-loop p99.
  double open_p99 = 0.0;
  double closed_p99 = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].trace == "burst") {
      (cells[i].policy == "gradient" ? closed_p99 : open_p99) =
          P99(results[i].request_latencies);
    }
  }
  const bool closed_meets_slo = closed_p99 <= kSloSec;
  const bool closed_below_open = closed_p99 < open_p99;
  const std::string slo = AsciiTable::Num(kSloSec, 1);
  out << "Expected shape: open loop serves everything and its burst p99 blows through the "
         "SLO;\nthe gradient controller sheds stale queue entries, holding served p99 under "
      << slo << " s.\n";
  out << "closed loop meets SLO on burst trace: "
      << (closed_meets_slo ? "yes" : "NO (unexpected)") << " (p99 "
      << AsciiTable::Num(closed_p99, 2) << " s vs SLO " << slo << " s)\n";
  out << "closed-loop p99 below open loop on burst trace: "
      << (closed_below_open ? "yes" : "NO (unexpected)") << " ("
      << AsciiTable::Num(closed_p99, 2) << " s vs " << AsciiTable::Num(open_p99, 2) << " s)\n";
  return closed_meets_slo && closed_below_open ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  using namespace fmoe;
  std::vector<Cell> cells;
  return bench::BenchMain(
      argc, argv, "bench_admission",
      "Closed-loop vs open-loop admission under burst and sustained overload on fMoE",
      [&](ExperimentPlan& plan, const bench::BenchEnv& env) { Declare(env.small, plan, &cells); },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        return Render(cells, results, out);
      },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        WriteJson(cells, results, out);
      });
}
