#include "src/harness/runner.h"

#include "src/util/thread_pool.h"

namespace fmoe {

std::vector<ExperimentResult> RunPlan(const ExperimentPlan& plan, const RunnerOptions& options,
                                      const std::function<void(size_t)>& on_done) {
  const std::vector<ExperimentTask>& tasks = plan.tasks();
  std::vector<ExperimentResult> results(tasks.size());
  const int jobs = options.jobs <= 0 ? ThreadPool::HardwareThreads() : options.jobs;
  // Each index writes only results[index]; ParallelForIndex runs inline (in plan order) at
  // jobs=1 and load-balances across a pool otherwise. Either way the returned vector is in
  // plan order, so downstream rendering cannot observe the execution schedule.
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

}  // namespace fmoe
