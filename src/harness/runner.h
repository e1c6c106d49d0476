// Deterministic parallel execution of experiment plans.
//
// RunPlan executes every task of an ExperimentPlan through RunTask — serially at jobs=1
// (byte-identical to the historical one-call-at-a-time benches), or on up to N worker
// threads at jobs=N — and returns the results in plan order. Determinism holds by construction: each
// task is a pure function of its own declaration with a seed fixed at plan-build time (see
// plan.h), RunTask constructs every stateful component (engines, gate simulators, caches,
// policies) per call with no shared mutable state — a caller-supplied arrival list is only
// read — and workers write only their own result slot. Thread count therefore changes
// wall-clock time and nothing else.
//
// RunObservedPlan is the one driver behind every plan-shaped program (bench::BenchMain and
// fmoe_sim): RunPlan plus the observers a command line can ask for — a Chrome trace of one
// task, and the clairvoyant oracle's gap table and JSON on every task.
#ifndef FMOE_SRC_HARNESS_RUNNER_H_
#define FMOE_SRC_HARNESS_RUNNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/harness/plan.h"

namespace fmoe {

struct RunnerOptions {
  // Worker threads. 1 = run inline on the calling thread (no thread started); <= 0 = one
  // per hardware thread.
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

// What a command-line plan driver adds on top of RunPlan.
struct ObservedRunOptions {
  int jobs = 1;             // As RunnerOptions::jobs.
  std::string trace_out;    // Non-empty: trace task `trace_task`; its Chrome trace lands here.
  int64_t trace_task = 0;   // Plan index of the traced task.
  bool oracle = false;      // Every task runs the clairvoyant oracle (DESIGN.md §5k).
  std::string oracle_out;   // Non-empty (with `oracle`): the per-task gap JSON lands here.
};

// Runs `plan` under `options` and emits, in this order: the trace line and stall table on
// stderr, `render` over the ordered results (if given), then with `oracle` the gap table on
// `gap_out` and the gap JSON at oracle_out. `program` names the traced process and the gap
// JSON. The observers change no result field outside the oracle block, so what `render`
// prints is the same with them on or off. Returns nullopt, after an error line on stderr, when trace_task is outside the plan or a
// file cannot be written.
std::optional<std::vector<ExperimentResult>> RunObservedPlan(
    const ExperimentPlan& plan, const ObservedRunOptions& options, const std::string& program,
    std::ostream& gap_out,
    const std::function<void(const std::vector<ExperimentResult>&)>& render = nullptr);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_RUNNER_H_
