// Figure 11: TPOT of all systems under varying expert-cache memory limits (6 GB - 96 GB
// total across the cluster), for the three models.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<double> limits_gb{6, 12, 24, 48, 96};
  const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();
  const std::vector<std::string> systems = fmoe::PaperSystemNames();

  std::vector<size_t> cells;  // model-major, then system, then limit.
  return BenchMain(
      argc, argv, "bench_fig11_cache_limits",
      "Figure 11: TPOT under varying expert cache memory limits",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const fmoe::ModelConfig& model : models) {
          for (const std::string& system : systems) {
            const std::vector<size_t> sweep = plan.AddOfflineSweep(
                system, SweepOptions(model, fmoe::LmsysLikeProfile()), limits_gb,
                [](fmoe::ExperimentOptions& options, double gb) {
                  options.cache_bytes = static_cast<uint64_t>(gb * (1ULL << 30));
                  // The cache is capped at the model's full expert footprint (larger budgets
                  // change nothing by construction).
                  options.cache_bytes = std::min<uint64_t>(
                      options.cache_bytes, options.model.total_expert_bytes());
                },
                "limit");
            cells.insert(cells.end(), sweep.begin(), sweep.end());
          }
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out, "Figure 11: TPOT (ms) under varying expert cache limits");
        size_t next = 0;
        for (const fmoe::ModelConfig& model : models) {
          std::vector<std::string> headers{model.name + " TPOT (ms)"};
          for (double gb : limits_gb) {
            headers.push_back(AsciiTable::Num(gb, 0) + " GB");
          }
          AsciiTable table(headers);
          for (const std::string& system : systems) {
            std::vector<std::string> row{system};
            for (size_t i = 0; i < limits_gb.size(); ++i) {
              row.push_back(Ms(results[cells[next++]].mean_tpot));
            }
            table.AddRow(row);
          }
          table.Print(out);
        }
        out << "Expected shape (paper Fig. 11): every system speeds up with a larger cache;\n"
               "fMoE gives the lowest TPOT across the sweep, with the largest margins at\n"
               "small limits (6-12 GB) where prediction quality decides what stays resident;\n"
               "DeepSpeed-Inference remains worst throughout.\n";
        return 0;
      });
}
