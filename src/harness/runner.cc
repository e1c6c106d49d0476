#include "src/harness/runner.h"

#include <iostream>

#include "src/harness/report.h"
#include "src/obs/trace_recorder.h"
#include "src/util/thread_pool.h"

namespace fmoe {

std::vector<ExperimentResult> RunPlan(const ExperimentPlan& plan, const RunnerOptions& options,
                                      const std::function<void(size_t)>& on_done) {
  const std::vector<ExperimentTask>& tasks = plan.tasks();
  std::vector<ExperimentResult> results(tasks.size());
  const int jobs = options.jobs <= 0 ? HardwareThreads() : options.jobs;
  // Each index writes only results[index]; ParallelForIndex runs inline (in plan order) at
  // jobs=1 and load-balances across up to `jobs` threads otherwise. Either way the returned
  // vector is in plan order, so downstream rendering cannot observe the execution schedule.
  ParallelForIndex(tasks.size(), jobs, [&](size_t index) {
    TraceRecorder* trace =
        (options.trace != nullptr && index == options.trace_task) ? options.trace : nullptr;
    results[index] = RunTask(tasks[index], trace);
    if (on_done) {
      on_done(index);
    }
  });
  return results;
}

std::optional<std::vector<ExperimentResult>> RunObservedPlan(
    const ExperimentPlan& plan, const ObservedRunOptions& options, const std::string& program,
    std::ostream& gap_out,
    const std::function<void(const std::vector<ExperimentResult>&)>& render) {
  const bool traced = !options.trace_out.empty();
  if (traced && (options.trace_task < 0 ||
                 static_cast<uint64_t>(options.trace_task) >= plan.size())) {
    std::cerr << "error: trace task " << options.trace_task << " out of range (plan has "
              << plan.size() << " tasks)\n";
    return std::nullopt;
  }
  // The oracle is a plan-wide knob: run a copy of the plan with every task recording its
  // gate-decision tape. Seeds are already resolved, so the copy keeps them.
  ExperimentPlan oracle_plan(plan.plan_seed());
  if (options.oracle) {
    for (ExperimentTask task : plan.tasks()) {
      task.options.oracle = true;
      oracle_plan.Add(std::move(task));
    }
  }
  const ExperimentPlan& run = options.oracle ? oracle_plan : plan;

  RunnerOptions runner;
  runner.jobs = options.jobs;
  TraceRecorder recorder;
  if (traced) {
    runner.trace = &recorder;
    runner.trace_task = static_cast<size_t>(options.trace_task);
  }
  std::vector<ExperimentResult> results = RunPlan(run, runner);

  if (traced) {
    const std::string process_name = program + " [" + std::to_string(runner.trace_task) +
                                     "] " + run.tasks()[runner.trace_task].system;
    if (!WriteTraceReport(recorder, process_name, options.trace_out, std::cerr)) {
      return std::nullopt;
    }
  }
  if (render) {
    render(results);
  }
  if (options.oracle) {
    PrintOracleTable(run, results, gap_out);
    if (!options.oracle_out.empty() &&
        !WriteJsonFile(options.oracle_out, [&](std::ostream& out) {
          WriteOracleJson(run, results, program, out);
        })) {
      return std::nullopt;
    }
  }
  return results;
}

}  // namespace fmoe
