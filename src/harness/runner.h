// Deterministic parallel execution of experiment plans.
//
// RunPlan executes every task of an ExperimentPlan through RunTask — serially at jobs=1
// (byte-identical to the historical one-call-at-a-time benches), or on a worker thread pool
// at jobs=N — and returns the results in plan order. Determinism holds by construction: each
// task is a pure function of its own declaration with a seed fixed at plan-build time (see
// plan.h), RunTask constructs every stateful component (engines, gate simulators, caches,
// policies) per call with no shared mutable state — a caller-supplied arrival list is only
// read — and workers write only their own result slot. Thread count therefore changes
// wall-clock time and nothing else.
#ifndef FMOE_SRC_HARNESS_RUNNER_H_
#define FMOE_SRC_HARNESS_RUNNER_H_

#include <functional>
#include <vector>

#include "src/harness/plan.h"

namespace fmoe {

struct RunnerOptions {
  // Worker threads. 1 = run inline on the calling thread (no pool); <= 0 = one per
  // hardware thread.
  int jobs = 1;
  // Optional trace recorder attached to exactly one task (`trace_task`, a plan index). One
  // task because a recorder holds a single virtual timeline; tracing never changes results,
  // so traced runs stay bitwise identical to untraced ones at any job count. The recorder is
  // written from whichever worker runs that task — do not share it across concurrent plans.
  TraceRecorder* trace = nullptr;  // Not owned.
  size_t trace_task = 0;
};

// Executes the whole plan and returns results in plan order (results[i] belongs to
// plan.tasks()[i]). The optional `on_done` callback fires after each task completes —
// on the worker that ran it, under no lock — with the task index; renderers must NOT use it
// for output (completion order is nondeterministic), only for progress accounting.
std::vector<ExperimentResult> RunPlan(const ExperimentPlan& plan,
                                      const RunnerOptions& options = {},
                                      const std::function<void(size_t)>& on_done = nullptr);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_RUNNER_H_
