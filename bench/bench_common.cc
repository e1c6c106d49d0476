#include "bench/bench_common.h"

#include "src/util/flags.h"

namespace fmoe {
namespace bench {

namespace {

// Parses --out_json, --small and --help, plus the plan driver's observer flags when
// `observers` is non-null. Same contract as ParseBenchArgs.
bool ParseFlags(int argc, const char* const* argv, const std::string& program,
                const std::string& description, BenchFlags* bench,
                ObservedRunOptions* observers, int* exit_code) {
  FlagParser flags(program, description);
  flags.AddString("out_json", "", "also write the bench's machine-readable report to this path");
  flags.AddBool("small", false, "CI smoke configuration (benches that define one)");
  if (observers != nullptr) {
    flags.AddInt("jobs", 1,
                 "worker threads for the experiment runner (0 = one per hardware thread); "
                 "output is byte-identical for any value");
    flags.AddString("trace_out", "",
                    "write a Chrome trace-event JSON (Perfetto-loadable) of one task here; "
                    "stdout is unaffected");
    flags.AddInt("trace_task", 0, "plan index of the task --trace_out covers (default 0)");
    flags.AddBool("oracle", false,
                  "run the clairvoyant oracle on every task and append a \"% of clairvoyant "
                  "optimum\" gap table to stdout (DESIGN.md 5k)");
    flags.AddString("oracle_out", "",
                    "write a compact per-task optimality-gap JSON here (implies --oracle)");
  }
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
  bench->out_json = flags.GetString("out_json");
  bench->small = flags.GetBool("small");
  if (observers != nullptr) {
    observers->jobs = static_cast<int>(flags.GetInt("jobs"));
    observers->trace_out = flags.GetString("trace_out");
    observers->trace_task = flags.GetInt("trace_task");
    observers->oracle_out = flags.GetString("oracle_out");
    observers->oracle = flags.GetBool("oracle") || !observers->oracle_out.empty();
  }
  return true;
}

}  // namespace

bool ParseBenchArgs(int argc, const char* const* argv, const std::string& program,
                    const std::string& description, BenchFlags* flags, int* exit_code) {
  return ParseFlags(argc, argv, program, description, flags, /*observers=*/nullptr, exit_code);
}

int BenchMain(int argc, const char* const* argv, const std::string& program,
              const std::string& description, const DeclareFn& declare,
              const RenderFn& render, const JsonFn& write_json) {
  BenchEnv env;
  int exit_code = 0;
  if (!ParseFlags(argc, argv, program, description, &env, &env, &exit_code)) {
    return exit_code;
  }
  ExperimentPlan plan;
  declare(plan, env);
  const std::optional<std::vector<ExperimentResult>> results =
      RunObservedPlan(plan, env, program, std::cout,
                      [&](const std::vector<ExperimentResult>& ordered) {
                        exit_code = render(ordered, std::cout);
                      });
  if (!results) {
    return 1;
  }
  if (!env.out_json.empty() && !WriteJsonFile(env.out_json, [&](std::ostream& out) {
        if (write_json) {
          write_json(*results, out);
        } else {
          WritePlanReportJson(plan, *results, /*include_latencies=*/false, out);
        }
      })) {
    return 1;
  }
  return exit_code;
}

}  // namespace bench
}  // namespace fmoe
