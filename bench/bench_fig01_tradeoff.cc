// Figure 1b: the latency-memory trade-off of existing solutions vs fMoE.
//
// Serves Mixtral-8x7B on the LMSYS-like dataset with every system plus the No-offload
// reference, reporting decode latency (TPOT) against GPU memory footprint (resident expert
// bytes + dense weights).
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const fmoe::ModelConfig model = fmoe::MixtralConfig();
  std::vector<std::string> systems = fmoe::PaperSystemNames();
  systems.push_back("No-offload");

  return BenchMain(
      argc, argv, "bench_fig01_tradeoff",
      "Figure 1b: inference latency vs memory footprint (Mixtral-8x7B, LMSYS-like)",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const std::string& system : systems) {
          plan.AddOffline(system, StandardOptions(model, fmoe::LmsysLikeProfile()),
                          {"system=" + system});
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out,
                          "Figure 1b: Inference latency vs memory footprint (Mixtral-8x7B, "
                          "LMSYS-like)");
        const double dense_gb =
            static_cast<double>(model.attention_bytes_per_layer) * model.num_layers / (1 << 30);
        AsciiTable table({"system", "TPOT (ms)", "TTFT (ms)", "expert memory (GiB)",
                          "total GPU memory (GiB)", "hit rate (%)"});
        for (const fmoe::ExperimentResult& result : results) {
          const double expert_gb =
              result.system == "No-offload"
                  ? static_cast<double>(model.total_expert_bytes()) / (1 << 30)
                  : result.cache_capacity_gb;
          table.AddRow({result.system, Ms(result.mean_tpot), Ms(result.mean_ttft),
                        AsciiTable::Num(expert_gb, 1), AsciiTable::Num(expert_gb + dense_gb, 1),
                        Pct(result.hit_rate)});
        }
        table.Print(out);
        out << "Expected shape (paper Fig. 1b): No-offload sits at low latency / maximal\n"
               "memory; DeepSpeed-Inference and Mixtral-Offloading at low memory / high\n"
               "latency; fMoE reaches low latency at the same reduced memory footprint.\n";
        return 0;
      });
}
