// Figure 8: Pearson correlation between map-match similarity scores (semantic and trajectory)
// and per-iteration expert hit rate, for 3 models x 2 datasets.
#include "bench/bench_common.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();
  const std::vector<fmoe::DatasetProfile> datasets = fmoe::AllPaperDatasets();

  std::vector<size_t> cells;
  return BenchMain(
      argc, argv, "bench_fig08_correlation",
      "Figure 8: correlation between map-match similarity scores and hit rate",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        cells = plan.AddOfflineCross(
            models, datasets, {"fMoE"},
            [](const fmoe::ModelConfig& model, const fmoe::DatasetProfile& dataset) {
              fmoe::ExperimentOptions options = SweepOptions(model, dataset);
              options.enable_score_log = true;
              options.keep_iteration_records = true;
              return options;
            });
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(
            out, "Figure 8: Pearson correlation between similarity scores and hit rate");
        AsciiTable table({"model", "dataset", "semantic r", "trajectory r", "iterations"});
        size_t next = 0;
        for (const fmoe::ModelConfig& model : models) {
          for (const fmoe::DatasetProfile& dataset : datasets) {
            const fmoe::ExperimentResult& result = results[cells[next++]];
            std::vector<double> semantic;
            std::vector<double> trajectory;
            std::vector<double> hits_sem;
            std::vector<double> hits_traj;
            const size_t n = std::min(result.score_log.size(), result.iteration_records.size());
            for (size_t i = 0; i < n; ++i) {
              const auto& score = result.score_log[i];
              const double hit_rate = result.iteration_records[i].HitRate();
              if (score.semantic_valid) {
                semantic.push_back(score.semantic);
                hits_sem.push_back(hit_rate);
              }
              if (score.trajectory_valid) {
                trajectory.push_back(score.trajectory);
                hits_traj.push_back(hit_rate);
              }
            }
            table.AddRow({model.name, dataset.name,
                          AsciiTable::Num(fmoe::PearsonCorrelation(semantic, hits_sem), 3),
                          AsciiTable::Num(fmoe::PearsonCorrelation(trajectory, hits_traj), 3),
                          std::to_string(n)});
          }
        }
        table.Print(out);
        out << "Expected shape (paper Fig. 8): positive correlations for both score types on\n"
               "every model/dataset — higher match similarity predicts higher hit rates, which\n"
               "is what justifies the similarity-aware selection threshold delta.\n";
        return 0;
      });
}
