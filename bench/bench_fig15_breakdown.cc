// Figure 15: latency breakdown of one fMoE inference iteration for the three models —
// critical-path components (compute, on-demand loading, context collection) versus policy
// work overlapped on the background matcher worker (map matching, prefetch issue, map
// update). A second pass runs the matcher at modeled speed (matcher_latency_scale = 1) to
// show that the pub-sub pipeline degrades hit rate gracefully instead of extending the
// iteration.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();
  const std::vector<double> scales{0.0, 1.0, 1e2, 1e4, 1e6};

  std::vector<size_t> model_cells;
  std::vector<size_t> scale_cells;
  return BenchMain(
      argc, argv, "bench_fig15_breakdown",
      "Figure 15: per-iteration latency breakdown and matcher-latency sensitivity",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const fmoe::ModelConfig& model : models) {
          model_cells.push_back(
              plan.AddOffline("fMoE", StandardOptions(model, fmoe::LmsysLikeProfile()),
                              {"group=breakdown", "model=" + model.name}));
        }
        // Matcher-latency sensitivity (pub-sub pipeline, §4.3): a slower background matcher
        // delays prefetch decisions — hit rate erodes and stale decisions get superseded —
        // but the policy critical path stays flat because no deferred job ever blocks the
        // forward pass.
        scale_cells = plan.AddOfflineSweep(
            "fMoE", SweepOptions(fmoe::MixtralConfig(), fmoe::LmsysLikeProfile()), scales,
            [](fmoe::ExperimentOptions& options, double scale) {
              options.matcher_latency_scale = scale;
            },
            "matcher_scale");
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out,
                          "Figure 15: latency breakdown of one fMoE inference iteration");
        AsciiTable table(
            {"component (ms/iteration)", "Mixtral-8x7B", "Qwen1.5-MoE", "Phi-3.5-MoE"});

        std::vector<std::vector<std::string>> rows{
            {"attention compute"},   {"expert compute"},        {"on-demand loading (stall)"},
            {"layer overhead"},      {"context collection (sync)"}, {"TOTAL iteration"},
            {"map matching (async)"}, {"prefetch issue (async)"},   {"map update (async)"},
            {"policy critical path (ms)"}, {"policy overlapped (ms)"},
            {"sync overhead share (%)"}};

        for (size_t m = 0; m < models.size(); ++m) {
          const fmoe::ExperimentResult& result = results[model_cells[m]];
          const fmoe::LatencyBreakdown& b = result.breakdown;
          const double iters = static_cast<double>(result.iterations);
          auto per_iter = [&](double total) { return Ms(total / iters, 3); };
          const double context_sync =
              b.sync_overhead[static_cast<size_t>(fmoe::OverheadCategory::kContextCollection)];
          rows[0].push_back(per_iter(b.attention_compute));
          rows[1].push_back(per_iter(b.expert_compute));
          rows[2].push_back(per_iter(b.demand_stall));
          rows[3].push_back(per_iter(b.layer_overhead));
          rows[4].push_back(per_iter(context_sync));
          rows[5].push_back(per_iter(b.TotalIteration()));
          rows[6].push_back(
              per_iter(b.async_work[static_cast<size_t>(fmoe::OverheadCategory::kMapMatching)]));
          rows[7].push_back(per_iter(
              b.async_work[static_cast<size_t>(fmoe::OverheadCategory::kPrefetchIssue)]));
          rows[8].push_back(
              per_iter(b.async_work[static_cast<size_t>(fmoe::OverheadCategory::kMapUpdate)]));
          rows[9].push_back(per_iter(b.PolicyCriticalPathSeconds()));
          rows[10].push_back(per_iter(b.PolicyOverlappedSeconds()));
          rows[11].push_back(Pct(b.TotalSyncOverhead() / b.TotalIteration()));
        }
        for (auto& row : rows) {
          table.AddRow(row);
        }
        table.Print(out);
        out << "Expected shape (paper Fig. 15 / §6.7): map matching, prefetching, and map\n"
               "updates run asynchronously and do not extend the iteration; the synchronous\n"
               "policy overhead (context collection) stays a small share (< 5%) of the\n"
               "iteration; Qwen iterations are much shorter than Mixtral/Phi.\n\n";

        fmoe::PrintBanner(out, "Matcher-latency sensitivity (Mixtral, fMoE)");
        AsciiTable sweep({"latency scale", "hit rate (%)", "TPOT (ms)", "critical path (ms/it)",
                          "overlapped (ms/it)", "applied", "superseded", "dropped"});
        // Match costs are microseconds against millisecond layers, so the interesting regime
        // is orders of magnitude: small scales only delay a decision to the next layer
        // boundary; 1e4+ pushes completions past whole iterations and starves prefetch lead
        // time.
        for (size_t i = 0; i < scales.size(); ++i) {
          const fmoe::ExperimentResult& result = results[scale_cells[i]];
          const double iters = static_cast<double>(result.iterations);
          sweep.AddRow({AsciiTable::Num(scales[i], 1), Pct(result.hit_rate),
                        Ms(result.mean_tpot, 2),
                        Ms(result.breakdown.PolicyCriticalPathSeconds() / iters, 3),
                        Ms(result.breakdown.PolicyOverlappedSeconds() / iters, 3),
                        std::to_string(result.deferred.applied),
                        std::to_string(result.deferred.superseded),
                        std::to_string(result.deferred.dropped)});
        }
        sweep.Print(out);
        out << "Expected shape: hit rate degrades gracefully as the matcher slows (decisions\n"
               "arrive later, stale ones are superseded) while the policy critical path stays\n"
               "flat — the latency cost of decoupling lands on prefetch lead time, never on\n"
               "the iteration.\n";
        return 0;
      });
}
