// Design-choice ablations beyond the paper's Fig. 12 (the candidates DESIGN.md calls out):
//   (a) Expert Map Store replacement: RDY deduplication vs FIFO.
//   (b) Expert parallelism: GPU count (= parallel host links) sweep.
//   (c) Cache frequency aging: decay factor sweep (LFU entrenchment study).
//   (d) Expert-to-device placement: round-robin (paper) vs layer-contiguous vs hashed.
//
// (c) and (d) used to construct engines by hand to reach the decay/placement knobs; those
// knobs now live on ExperimentOptions, so every section is a plain plan declaration.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const fmoe::ModelConfig model = fmoe::MixtralConfig();
  const fmoe::DatasetProfile dataset = fmoe::LmsysLikeProfile();

  const std::vector<size_t> capacities{96, 192, 384};
  const std::vector<std::string> store_systems{"fMoE", "fMoE-FIFOStore"};
  const std::vector<int> gpu_counts{1, 2, 4, 6, 8};
  const std::vector<double> decays{0.3, 0.6, 0.9, 1.0};
  const std::vector<std::pair<std::string, fmoe::PlacementStrategy>> placements{
      {"round-robin (paper)", fmoe::PlacementStrategy::kRoundRobin},
      {"layer-contiguous", fmoe::PlacementStrategy::kLayerContiguous},
      {"hashed", fmoe::PlacementStrategy::kHashed},
  };

  std::vector<size_t> store_cells;      // capacity-major, then system.
  std::vector<size_t> gpu_cells;        // gpu-major: fMoE then DeepSpeed.
  std::vector<size_t> decay_cells;      // decay-major: fMoE then MoE-Infinity.
  std::vector<size_t> placement_cells;  // one per placement strategy.
  return BenchMain(
      argc, argv, "bench_ablation_design",
      "Design-choice ablations: store replacement, parallelism, aging, placement",
      [&](fmoe::ExperimentPlan& plan, const BenchEnv&) {
        for (const size_t capacity : capacities) {
          for (const std::string& system : store_systems) {
            fmoe::ExperimentOptions options = SweepOptions(model, dataset);
            options.store_capacity = capacity;
            store_cells.push_back(plan.AddOffline(
                system, options,
                {"group=store", "system=" + system, "capacity=" + std::to_string(capacity)}));
          }
        }
        for (const int gpus : gpu_counts) {
          fmoe::ExperimentOptions options = SweepOptions(model, dataset);
          options.gpu_count = gpus;
          const std::vector<std::string> tags{"group=parallelism",
                                              "gpus=" + std::to_string(gpus)};
          gpu_cells.push_back(plan.AddOffline("fMoE", options, tags));
          gpu_cells.push_back(plan.AddOffline("DeepSpeed-Inference", options, tags));
        }
        for (const double decay : decays) {
          fmoe::ExperimentOptions options = SweepOptions(model, dataset);
          options.frequency_decay = decay;
          const std::vector<std::string> tags{"group=aging",
                                              "decay=" + AsciiTable::Num(decay, 1)};
          decay_cells.push_back(plan.AddOffline("fMoE", options, tags));
          decay_cells.push_back(plan.AddOffline("MoE-Infinity", options, tags));
        }
        for (const auto& [label, placement] : placements) {
          fmoe::ExperimentOptions options = SweepOptions(model, dataset);
          options.placement = placement;
          placement_cells.push_back(
              plan.AddOffline("fMoE", options, {"group=placement", "placement=" + label}));
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out, "Ablation (a): store replacement policy (Mixtral-8x7B)");
        {
          AsciiTable table({"store replacement", "store capacity", "mean traj score",
                            "hit rate (%)", "TPOT (ms)"});
          size_t next = 0;
          for (const size_t capacity : capacities) {
            for (const std::string& system : store_systems) {
              const fmoe::ExperimentResult& result = results[store_cells[next++]];
              table.AddRow({system == "fMoE" ? "RDY dedup (paper)" : "FIFO",
                            std::to_string(capacity),
                            AsciiTable::Num(result.mean_trajectory_score, 3),
                            Pct(result.hit_rate), Ms(result.mean_tpot)});
            }
          }
          table.Print(out);
          out << "RDY dedup consistently wins on match quality (trajectory score); on raw hit\n"
                 "rate FIFO's recency bias is competitive at these capacities — the dedup\n"
                 "payoff is diversity for workloads whose phase space exceeds the store.\n";
        }

        fmoe::PrintBanner(out, "Ablation (b): expert parallelism (GPU / link count)");
        {
          AsciiTable table({"GPUs", "fMoE TPOT (ms)", "fMoE TTFT (ms)", "DeepSpeed TPOT (ms)"});
          size_t next = 0;
          for (const int gpus : gpu_counts) {
            const fmoe::ExperimentResult& fmoe_result = results[gpu_cells[next++]];
            const fmoe::ExperimentResult& ds_result = results[gpu_cells[next++]];
            table.AddRow({std::to_string(gpus), Ms(fmoe_result.mean_tpot),
                          Ms(fmoe_result.mean_ttft), Ms(ds_result.mean_tpot)});
          }
          table.Print(out);
          out << "More links mean more parallel transfer bandwidth: everyone speeds up, but\n"
                 "on-demand loading benefits most (its transfers are all on the critical path).\n";
        }

        fmoe::PrintBanner(out, "Ablation (c): cache frequency aging");
        {
          AsciiTable table({"frequency decay", "fMoE hit rate (%)", "MoE-Infinity hit rate (%)"});
          size_t next = 0;
          for (const double decay : decays) {
            const fmoe::ExperimentResult& fmoe_result = results[decay_cells[next++]];
            const fmoe::ExperimentResult& inf_result = results[decay_cells[next++]];
            table.AddRow({AsciiTable::Num(decay, 1), Pct(fmoe_result.hit_rate),
                          Pct(inf_result.hit_rate)});
          }
          table.Print(out);
          out << "Without aging (decay = 1.0), LFU-family caches entrench the first working\n"
                 "set and hit rates collapse toward the raw cache fraction; fMoE's probability\n"
                 "term partially compensates.\n";
        }

        fmoe::PrintBanner(out, "Ablation (d): expert-to-device placement (fMoE, 6 GPUs)");
        {
          AsciiTable table({"placement", "TTFT (ms)", "TPOT (ms)", "hit rate (%)"});
          for (size_t p = 0; p < placements.size(); ++p) {
            const fmoe::ExperimentResult& result = results[placement_cells[p]];
            table.AddRow({placements[p].first, Ms(result.mean_ttft), Ms(result.mean_tpot),
                          Pct(result.hit_rate)});
          }
          table.Print(out);
          out << "Round-robin spreads one layer's transfers across all links; layer-contiguous\n"
                 "serialises adjacent layers on one link and should be measurably slower.\n";
        }
        return 0;
      });
}
