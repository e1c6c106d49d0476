// Figure 13: TTFT and TPOT of fMoE at different prefetch distances, per model.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<int> distances{1, 2, 3, 4, 6, 8};
  const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();

  std::vector<size_t> cells;  // model-major, then distance.
  return BenchMain(
      argc, argv, "bench_fig13_prefetch_distance",
      "Figure 13: fMoE TTFT / TPOT / hit rate vs prefetch distance d",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const fmoe::ModelConfig& model : models) {
          const std::vector<size_t> sweep = plan.AddOfflineSweep(
              "fMoE", SweepOptions(model, fmoe::LmsysLikeProfile()), distances,
              [](fmoe::ExperimentOptions& options, int d) { options.prefetch_distance = d; },
              "distance");
          cells.insert(cells.end(), sweep.begin(), sweep.end());
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out, "Figure 13: fMoE performance vs prefetch distance d");
        size_t next = 0;
        for (const fmoe::ModelConfig& model : models) {
          std::vector<std::string> headers{model.name};
          for (int d : distances) {
            headers.push_back("d=" + std::to_string(d));
          }
          AsciiTable table(headers);
          std::vector<std::string> ttft_row{"TTFT (ms)"};
          std::vector<std::string> tpot_row{"TPOT (ms)"};
          std::vector<std::string> hit_row{"hit rate (%)"};
          for (size_t d = 0; d < distances.size(); ++d) {
            const fmoe::ExperimentResult& result = results[cells[next++]];
            ttft_row.push_back(Ms(result.mean_ttft));
            tpot_row.push_back(Ms(result.mean_tpot));
            hit_row.push_back(Pct(result.hit_rate));
          }
          table.AddRow(ttft_row);
          table.AddRow(tpot_row);
          table.AddRow(hit_row);
          table.Print(out);
        }
        out << "Expected shape (paper Fig. 13): a latency sweet spot at moderate d (the paper\n"
               "profiles d = 3) — small d leaves too little lead time to hide transfers, large\n"
               "d widens the semantically-guided window and lowers hit rates.\n";
        return 0;
      });
}
