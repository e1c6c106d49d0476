// Extension bench (beyond the paper): Hobbit-style mixed-precision expert streaming on top
// of fMoE — prefetch low-probability ("less critical") experts at half precision, trading a
// bounded quality cost (share of tokens served by reduced-precision experts) for transfer
// bandwidth. The paper classifies lossy serving as orthogonal to fMoE; this bench shows the
// two compose.
//
// The precision threshold is an ExperimentOptions knob (threaded through MakeSystem into
// FmoeOptions), so each cell is a standard offline experiment.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<fmoe::ModelConfig> models{fmoe::MixtralConfig(), fmoe::PhiMoeConfig()};
  const std::vector<double> thresholds{0.0, 0.1, 0.25, 0.5};

  std::vector<size_t> cells;  // model-major, then threshold.
  return BenchMain(
      argc, argv, "bench_ext_mixed_precision",
      "Extension: mixed-precision expert streaming (fMoE + Hobbit-style selection)",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const fmoe::ModelConfig& model : models) {
          const std::vector<size_t> sweep = plan.AddOfflineSweep(
              "fMoE", SweepOptions(model, fmoe::LmsysLikeProfile()), thresholds,
              [](fmoe::ExperimentOptions& options, double threshold) {
                options.low_precision_threshold = threshold;
              },
              "low_precision_threshold");
          cells.insert(cells.end(), sweep.begin(), sweep.end());
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out,
                          "Extension: mixed-precision expert streaming (fMoE + Hobbit-style "
                          "precision selection)");
        size_t next = 0;
        for (const fmoe::ModelConfig& model : models) {
          AsciiTable table({model.name + " low-p threshold", "TTFT (ms)", "TPOT (ms)",
                            "hit rate (%)", "low-precision servings (%)"});
          for (size_t t = 0; t < thresholds.size(); ++t) {
            const fmoe::ExperimentResult& result = results[cells[next++]];
            table.AddRow(
                {thresholds[t] == 0.0 ? "off (lossless)" : AsciiTable::Num(thresholds[t], 2),
                 Ms(result.mean_ttft), Ms(result.mean_tpot), Pct(result.hit_rate),
                 Pct(result.low_precision_share)});
          }
          table.Print(out);
        }
        out << "Expected shape: raising the threshold sends more hedge experts over the link\n"
               "at half size — latency improves while the quality proxy (share of servings\n"
               "from reduced-precision copies) grows; threshold 0 reproduces lossless fMoE.\n";
        return 0;
      });
}
