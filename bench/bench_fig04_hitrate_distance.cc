// Figure 4: expert hit rates of coarse-grained vs fine-grained offloading designs at different
// prefetch distances, for all three models (LMSYS-like prompts).
//
// "Fine-grained" is fMoE's expert-map design; "coarse-grained" is request-level hit-count
// tracking (the MoE-Infinity EAM machinery).
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<int> distances{1, 2, 3, 4, 5, 6, 8};
  const std::vector<std::string> systems{"fMoE", "HitCount"};
  const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();

  std::vector<size_t> cells;  // model-major, then system, then distance.
  return BenchMain(
      argc, argv, "bench_fig04_hitrate_distance",
      "Figure 4: expert hit rate vs prefetch distance, coarse vs fine tracking",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const fmoe::ModelConfig& model : models) {
          for (const std::string& system : systems) {
            const std::vector<size_t> sweep = plan.AddOfflineSweep(
                system, SweepOptions(model, fmoe::LmsysLikeProfile()), distances,
                [](fmoe::ExperimentOptions& options, int d) { options.prefetch_distance = d; },
                "distance");
            cells.insert(cells.end(), sweep.begin(), sweep.end());
          }
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out,
                          "Figure 4: expert hit rate (%) vs prefetch distance, coarse vs fine");
        size_t next = 0;
        for (const fmoe::ModelConfig& model : models) {
          std::vector<std::string> headers{"design (" + model.name + ")"};
          for (int d : distances) {
            headers.push_back("d=" + std::to_string(d));
          }
          AsciiTable table(headers);
          for (const std::string& system : systems) {
            std::vector<std::string> row{system == "fMoE" ? "fine-grained (fMoE)"
                                                          : "coarse-grained (hit count)"};
            for (size_t d = 0; d < distances.size(); ++d) {
              row.push_back(Pct(results[cells[next++]].hit_rate));
            }
            table.AddRow(row);
          }
          table.Print(out);
        }
        out << "Expected shape (paper Fig. 4): fine-grained hit rates sit well above\n"
               "coarse-grained at every distance, and hit rates degrade as the prefetch\n"
               "distance grows.\n";
        return 0;
      });
}
