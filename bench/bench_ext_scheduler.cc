// Extension bench (beyond the paper): continuous batching under load.
//
// Replays an Azure-like trace through the ContinuousBatchScheduler at different batch limits
// and queue disciplines, measuring throughput, occupancy, and end-to-end latency — the
// interaction between modern request scheduling and expert offloading that the paper's
// single-request online protocol leaves open.
//
// Each cell is a kScheduled plan task (RunScheduled): the trace is regenerated per task from
// the same (trace, dataset, seed) triple, so every cell replays the identical request
// sequence regardless of which worker runs it.
#include "bench/bench_common.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const fmoe::ModelConfig model = fmoe::MixtralConfig();
  const std::vector<std::string> systems{"MoE-Infinity", "fMoE"};
  const std::vector<int> batches{1, 2, 4};
  const std::vector<std::pair<std::string, fmoe::SchedulerOptions::QueueDiscipline>>
      disciplines{
          {"FCFS", fmoe::SchedulerOptions::QueueDiscipline::kFcfs},
          {"shortest-job-first", fmoe::SchedulerOptions::QueueDiscipline::kShortestJobFirst},
      };
  constexpr size_t kRequests = 32;

  fmoe::TraceProfile trace;
  trace.mean_arrival_rate = 0.12;  // Heavy enough that batching matters.
  trace.max_decode_tokens = 32;

  auto options = [&]() {
    fmoe::ExperimentOptions o = SweepOptions(model, fmoe::LmsysLikeProfile());
    o.max_decode_tokens = 32;
    return o;
  };

  std::vector<size_t> batch_cells;       // system-major, then batch limit.
  std::vector<size_t> discipline_cells;  // one per discipline, batch limit 1.
  return BenchMain(
      argc, argv, "bench_ext_scheduler",
      "Extension: continuous batching and queue disciplines under an online trace",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const std::string& system : systems) {
          for (const int batch : batches) {
            fmoe::SchedulerOptions sched;
            sched.max_batch_size = batch;
            batch_cells.push_back(plan.AddScheduled(
                system, options(), trace, kRequests, sched,
                {"group=batching", "system=" + system, "batch=" + std::to_string(batch)}));
          }
        }
        for (const auto& [label, discipline] : disciplines) {
          fmoe::SchedulerOptions sched;
          sched.max_batch_size = 1;
          sched.discipline = discipline;
          discipline_cells.push_back(plan.AddScheduled(
              "fMoE", options(), trace, kRequests, sched,
              {"group=discipline", "discipline=" + label}));
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(
            out, "Extension: continuous batching under load (Mixtral-8x7B, 32 trace requests)");
        AsciiTable table({"system", "batch limit", "tokens/s", "mean occupancy", "mean e2e (s)",
                          "p90 e2e (s)", "hit rate (%)"});
        size_t next = 0;
        for (const std::string& system : systems) {
          for (const int batch : batches) {
            const fmoe::ExperimentResult& result = results[batch_cells[next++]];
            table.AddRow(
                {system, std::to_string(batch),
                 AsciiTable::Num(result.scheduler_stats.Throughput(result.scheduled_tokens), 1),
                 AsciiTable::Num(result.scheduler_stats.mean_batch_occupancy, 2),
                 AsciiTable::Num(result.mean_e2e, 1),
                 AsciiTable::Num(fmoe::Percentile(result.request_latencies, 90.0), 1),
                 Pct(result.hit_rate)});
          }
        }
        table.Print(out);

        fmoe::PrintBanner(out,
                          "Extension: queue discipline at batch limit 1 (fMoE, maximal queueing)");
        AsciiTable discipline_table({"discipline", "mean e2e (s)", "p90 e2e (s)", "tokens/s"});
        for (size_t d = 0; d < disciplines.size(); ++d) {
          const fmoe::ExperimentResult& result = results[discipline_cells[d]];
          discipline_table.AddRow(
              {disciplines[d].first, AsciiTable::Num(result.mean_e2e, 1),
               AsciiTable::Num(fmoe::Percentile(result.request_latencies, 90.0), 1),
               AsciiTable::Num(result.scheduler_stats.Throughput(result.scheduled_tokens), 1)});
        }
        discipline_table.Print(out);
        out << "Expected shape: raising the batch limit increases throughput and occupancy\n"
               "while per-request latency falls (queueing shrinks); under serial service, SJF\n"
               "lowers mean latency relative to FCFS when queues mix request lengths.\n";
        return 0;
      });
}
