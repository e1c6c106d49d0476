// Figure 12: ablation study.
//   12a — expert-pattern tracking approaches: Speculate, Hit count, Map(T), Map(T+S),
//         Map(T+S+delta). All run inside the same matcher/prefetcher machinery.
//   12b — caching algorithms: LRU, LFU, fMoE's probability-weighted LFU, all under full
//         fMoE prefetching.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  // Qwen1.5-MoE gives the delta mechanism headroom: with 60 experts and top-4 routing the
  // matched distributions are flat enough that the threshold actually widens selections.
  const fmoe::ModelConfig model = fmoe::QwenMoeConfig();
  const fmoe::DatasetProfile dataset = fmoe::LmsysLikeProfile();

  const std::vector<std::pair<std::string, std::string>> tracking{
      {"Speculate", "Speculate"},
      {"Hit count", "HitCount"},
      {"Map (T)", "Map(T)"},
      {"Map (T+S)", "Map(T+S)"},
      {"Map (T+S+d)", "Map(T+S+d)"},
  };
  const std::vector<std::pair<std::string, std::string>> caching{
      {"LRU (Mixtral-Offloading)", "fMoE-LRU"},
      {"LFU (MoE-Infinity)", "fMoE-LFU"},
      {"fMoE (p x freq priority)", "fMoE"},
  };

  std::vector<size_t> tracking_cells;
  std::vector<size_t> caching_cells;
  return BenchMain(
      argc, argv, "bench_fig12_ablation",
      "Figure 12: tracking-approach and caching-algorithm ablations (Qwen1.5-MoE)",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const auto& [label, system] : tracking) {
          tracking_cells.push_back(plan.AddOffline(system, SweepOptions(model, dataset),
                                                   {"group=tracking", "system=" + system}));
        }
        for (const auto& [label, system] : caching) {
          caching_cells.push_back(plan.AddOffline(system, SweepOptions(model, dataset),
                                                  {"group=caching", "system=" + system}));
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out,
                          "Figure 12a: expert pattern tracking approaches (Qwen1.5-MoE)");
        {
          AsciiTable table({"tracking approach", "hit rate (%)", "TPOT (ms)"});
          for (size_t i = 0; i < tracking.size(); ++i) {
            const fmoe::ExperimentResult& result = results[tracking_cells[i]];
            table.AddRow({tracking[i].first, Pct(result.hit_rate), Ms(result.mean_tpot)});
          }
          table.Print(out);
        }

        fmoe::PrintBanner(out, "Figure 12b: expert caching algorithms (Qwen1.5-MoE)");
        {
          AsciiTable table({"caching algorithm", "hit rate (%)", "TPOT (ms)"});
          for (size_t i = 0; i < caching.size(); ++i) {
            const fmoe::ExperimentResult& result = results[caching_cells[i]];
            table.AddRow({caching[i].first, Pct(result.hit_rate), Ms(result.mean_tpot)});
          }
          table.Print(out);
        }

        out << "Expected shape (paper Fig. 12): hit rate increases as expert-map features are\n"
               "restored — hit-count tracking worst, Map(T) < Map(T+S) < Map(T+S+delta) —\n"
               "(12a); and LRU < LFU < fMoE's priority cache under prefetching (12b).\n";
        return 0;
      });
}
