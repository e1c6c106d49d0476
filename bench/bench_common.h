// Shared scaffolding for the benches.
//
// Every plan bench — the figure reproductions and the virtual-time sweeps alike — is a
// declarative ExperimentPlan (src/harness/plan.h) plus a render function over the ordered
// result vector. BenchMain supplies the shared control flow: the one flag set (BenchEnv), the
// plan driver RunObservedPlan (src/harness/runner.h) with its deterministic parallel runner,
// trace and oracle observers, and the --out_json document. The wall-clock micro benches and
// the data-structure figures have no plan: they parse only --small and --out_json
// (ParseBenchArgs), so an observer flag is an unknown flag there. Requests are sized so the
// full suite finishes in minutes on one core; absolute latencies come from the analytic
// hardware model (DESIGN.md §2), and what each bench must reproduce is the *shape* of the
// corresponding paper figure, stated in a trailing "expected shape" note.
//
// Determinism: rendering sees results in plan order no matter how many jobs ran, so a bench's
// stdout is byte-identical for --jobs=1 and --jobs=N (DESIGN.md §5e).
#ifndef FMOE_BENCH_BENCH_COMMON_H_
#define FMOE_BENCH_BENCH_COMMON_H_

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/plan.h"
#include "src/harness/report.h"
#include "src/harness/runner.h"
#include "src/util/table.h"

namespace fmoe {
namespace bench {

// The flags every bench takes.
struct BenchFlags {
  std::string out_json;  // Non-empty: also write a machine-readable report here.
  bool small = false;    // CI smoke configuration, for the benches that define one.
};

// A plan bench's flags: BenchFlags plus the plan driver's observer options (--jobs,
// --trace_out, --trace_task, --oracle, --oracle_out).
struct BenchEnv : ObservedRunOptions, BenchFlags {};

// Parses a bench without a plan: --small, --out_json and --help only. Returns true to
// proceed; on false *exit_code holds the process exit status (0 for --help, 1 for a malformed
// or unknown flag).
bool ParseBenchArgs(int argc, const char* const* argv, const std::string& program,
                    const std::string& description, BenchFlags* flags, int* exit_code);

using DeclareFn = std::function<void(ExperimentPlan&, const BenchEnv&)>;
// Prints the tables and returns the exit status: 0, or 2 when a checked expected shape fails.
using RenderFn = std::function<int(const std::vector<ExperimentResult>&, std::ostream&)>;
using JsonFn = std::function<void(const std::vector<ExperimentResult>&, std::ostream&)>;

// Standard bench entry point: parse BenchEnv's flags, declare the plan, run it through
// RunObservedPlan at --jobs workers, render the tables over the ordered results, and honour
// --out_json with `write_json`'s document — by default the plan report (harness/report.h).
// Returns render's status, or 1 on a malformed flag or an I/O failure.
// With --trace_out PATH, one task (--trace_task, default 0) runs with a TraceRecorder
// attached; the Chrome trace-event JSON lands at PATH and the stall-attribution table goes to
// stderr — stdout stays byte-identical to an untraced run.
// With --oracle (or --oracle_out PATH), every task records its gate-decision tape and the
// rendered output is followed by a "% of clairvoyant optimum" gap table; the default (off)
// leaves stdout and --out_json byte-identical to a pre-oracle run.
int BenchMain(int argc, const char* const* argv, const std::string& program,
              const std::string& description, const DeclareFn& declare,
              const RenderFn& render, const JsonFn& write_json = nullptr);

// For benches whose machine-readable output is not a plan report (fig. 3/16, table 1, the
// micro benches) — harness/report.h's writer, re-exported for them.
using fmoe::WriteJsonFile;

// Standard offline-experiment options (7:3 protocol, paper's d = 3).
inline ExperimentOptions StandardOptions(const ModelConfig& model,
                                         const DatasetProfile& dataset) {
  ExperimentOptions options;
  options.model = model;
  options.dataset = dataset;
  options.history_requests = 80;
  options.test_requests = 24;
  options.max_decode_tokens = 32;
  options.store_capacity = 512;
  options.prefetch_distance = 3;
  options.cache_fraction = 0.22;
  options.seed = 42;
  return options;
}

// Reduced-size options for wide parameter sweeps.
inline ExperimentOptions SweepOptions(const ModelConfig& model, const DatasetProfile& dataset) {
  ExperimentOptions options = StandardOptions(model, dataset);
  options.history_requests = 48;
  options.test_requests = 12;
  options.max_decode_tokens = 24;
  options.store_capacity = 384;
  return options;
}

inline std::string Ms(double seconds, int precision = 1) {
  return AsciiTable::Num(seconds * 1e3, precision);
}

inline std::string Pct(double fraction, int precision = 1) {
  return AsciiTable::Num(fraction * 100.0, precision);
}

}  // namespace bench
}  // namespace fmoe

#endif  // FMOE_BENCH_BENCH_COMMON_H_
