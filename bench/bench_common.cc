#include "bench/bench_common.h"

#include <fstream>

#include "src/obs/trace_recorder.h"
#include "src/util/flags.h"

namespace fmoe {
namespace bench {

bool ParseBenchArgs(int argc, const char* const* argv, const std::string& program,
                    const std::string& description, BenchEnv* env, int* exit_code) {
  FlagParser flags(program, description);
  flags.AddInt("jobs", 1,
               "worker threads for the experiment runner (0 = one per hardware thread); "
               "output is byte-identical for any value");
  flags.AddString("out_json", "",
                  "also write a machine-readable report (plan + results) to this path");
  flags.AddString("trace_out", "",
                  "write a Chrome trace-event JSON (Perfetto-loadable) of one task here; "
                  "stdout is unaffected");
  flags.AddInt("trace_task", 0, "plan index of the task --trace_out covers (default 0)");
  flags.AddBool("oracle", false,
                "run the clairvoyant oracle on every task and append a \"% of clairvoyant "
                "optimum\" gap table to stdout (DESIGN.md 5k)");
  flags.AddString("oracle_out", "",
                  "write a compact per-task optimality-gap JSON here (implies --oracle)");
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    if (flags.help_requested()) {
      std::cout << flags.Usage();
      *exit_code = 0;
    } else {
      std::cerr << "error: " << error << "\n\n" << flags.Usage();
      *exit_code = 1;
    }
    return false;
  }
  env->jobs = static_cast<int>(flags.GetInt("jobs"));
  env->out_json = flags.GetString("out_json");
  env->trace_out = flags.GetString("trace_out");
  env->trace_task = static_cast<int>(flags.GetInt("trace_task"));
  env->oracle_out = flags.GetString("oracle_out");
  env->oracle = flags.GetBool("oracle") || !env->oracle_out.empty();
  return true;
}

int BenchMain(int argc, const char* const* argv, const std::string& program,
              const std::string& description, const DeclareFn& declare,
              const RenderFn& render) {
  BenchEnv env;
  int exit_code = 0;
  if (!ParseBenchArgs(argc, argv, program, description, &env, &exit_code)) {
    return exit_code;
  }

  ExperimentPlan plan;
  declare(plan);
  if (env.oracle) {
    // Plan-wide knob: every task records its gate-decision tape. Off (the default), nothing
    // below this line changes and stdout/--out_json stay byte-identical to a pre-oracle run.
    for (ExperimentTask& task : plan.mutable_tasks()) {
      task.options.oracle = true;
    }
  }

  RunnerOptions runner;
  runner.jobs = env.jobs;
  TraceRecorder recorder;
  if (!env.trace_out.empty()) {
    if (env.trace_task < 0 || static_cast<size_t>(env.trace_task) >= plan.tasks().size()) {
      std::cerr << "error: --trace_task " << env.trace_task << " out of range (plan has "
                << plan.tasks().size() << " tasks)\n";
      return 1;
    }
    runner.trace = &recorder;
    runner.trace_task = static_cast<size_t>(env.trace_task);
  }
  const std::vector<ExperimentResult> results = RunPlan(plan, runner);

  render(results, std::cout);
  if (env.oracle) {
    PrintOracleTable(plan, results, std::cout);
  }
  if (!env.oracle_out.empty()) {
    const bool ok = WriteJsonFile(env.oracle_out, [&](std::ostream& out) {
      WriteOracleJson(plan, results, program, out);
    });
    if (!ok) {
      return 1;
    }
  }

  if (!env.trace_out.empty()) {
    const ExperimentTask& traced = plan.tasks()[runner.trace_task];
    const std::string process_name =
        program + " [" + std::to_string(runner.trace_task) + "] " + traced.system;
    // Stall attribution goes to stderr so stdout stays byte-identical to an untraced run.
    if (!WriteTraceReport(recorder, process_name, env.trace_out, std::cerr)) {
      return 1;
    }
  }

  if (!env.out_json.empty()) {
    const bool ok = WriteJsonFile(env.out_json, [&](std::ostream& out) {
      WritePlanReportJson(plan, results, /*include_latencies=*/false, out);
    });
    if (!ok) {
      return 1;
    }
  }
  return 0;
}

bool WriteJsonFile(const std::string& path, const std::function<void(std::ostream&)>& write) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  write(file);
  if (!file) {
    std::cerr << "error: writing " << path << " failed\n";
    return false;
  }
  return true;
}

}  // namespace bench
}  // namespace fmoe
