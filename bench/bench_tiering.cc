// Multi-tier offload sweep for BENCH_tiering.json (DESIGN.md §5h).
//
// Sweeps host-pool capacity x NVMe bandwidth at a fixed GPU expert-cache budget on the fMoE
// system. The host_capacity_gb = 0 rows are the two-tier baseline (GPU <-> NVMe with no host
// staging pool) at the same GPU capacity, so each column reads as "what does adding a host
// RAM tier of size H buy at this NVMe speed". The run is virtual-time and single-seeded, so
// unlike the wall-clock benches the committed baseline is exactly reproducible bit-for-bit.
//
// Expected shape: demand stall falls monotonically as host capacity grows (more misses served
// over the fast host link instead of the slow NVMe link), with the largest win at the lowest
// NVMe bandwidth; at least one three-tier cell must beat its two-tier baseline strictly.
//
// Usage: bench_tiering [--small] [--out_json PATH] [bench flags; see --help]
//   --small          CI smoke configuration: one bandwidth, two capacities.
//   --out_json PATH  Also write the results as JSON to PATH (the BENCH_tiering.json format).
// The exit code asserts the three-tier win (the CI bench-smoke contract): 2 if no cell beats
// its two-tier baseline.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/experiment.h"
#include "src/moe/model_config.h"
#include "src/util/table.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// One swept configuration; cells[i] describes plan task i.
struct Cell {
  double host_gb = 0.0;
  double nvme_gbps = 0.0;
};

ExperimentOptions BaseOptions(double host_gb, double nvme_gbps) {
  ExperimentOptions options = bench::SweepOptions(TinyTestConfig(), LmsysLikeProfile());
  // nvme_backing stays on for every cell — including host_gb = 0 — so all rows pay the same
  // NVMe master-copy cost and differ only in the staging pool between it and the GPU.
  options.tier.nvme_backing = true;
  options.tier.host_capacity_bytes = static_cast<uint64_t>(host_gb * kGiB);
  options.tier.nvme_link.bandwidth_bytes_per_sec = nvme_gbps * 1.0e9;
  options.host_stage_candidates = 2;
  return options;
}

void Declare(bool small, ExperimentPlan& plan, std::vector<Cell>* cells) {
  std::vector<double> host_gbs = {0.0, 0.05, 0.1, 0.2};
  std::vector<double> nvme_gbps_values = {2.0, 3.5, 7.0};
  if (small) {
    host_gbs = {0.0, 0.2};
    nvme_gbps_values = {3.5};
  }
  for (const double gbps : nvme_gbps_values) {
    for (const double host_gb : host_gbs) {
      plan.AddOffline("fMoE", BaseOptions(host_gb, gbps),
                      {"nvme_gbps=" + AsciiTable::Num(gbps, 1),
                       "host_gb=" + AsciiTable::Num(host_gb, 2)});
      cells->push_back({host_gb, gbps});
    }
  }
}

void WriteJson(const std::vector<Cell>& cells, const std::vector<ExperimentResult>& results,
               std::ostream& out) {
  const ExperimentOptions sample = BaseOptions(0.0, cells.front().nvme_gbps);
  out << "{\n";
  out << "  \"description\": \"Multi-tier offload sweep (DESIGN.md \\u00a75h): host-pool "
         "capacity x NVMe bandwidth at a fixed GPU expert-cache budget, fMoE system, offline "
         "7:3 protocol on the tiny test model. host_capacity_gb = 0 rows are the two-tier "
         "GPU<->NVMe baseline at the same GPU capacity. Virtual-time and single-seeded, so "
         "regeneration is bit-exact. Regenerate with: build/bench/bench_tiering --out_json "
         "BENCH_tiering.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(sample.model.name)
      << "\", \"system\": \"fMoE\", \"cache_fraction\": " << sample.cache_fraction
      << ", \"history_requests\": " << sample.history_requests
      << ", \"test_requests\": " << sample.test_requests
      << ", \"host_stage_candidates\": " << sample.host_stage_candidates
      << ", \"nvme_latency_us\": " << sample.tier.nvme_link.fixed_latency_sec * 1e6
      << "},\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const ExperimentResult& r = results[i];
    const TierStats& t = r.tier;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"host_capacity_gb\": %g, \"nvme_gbps\": %g, \"demand_stall_s\": %.9g, "
                  "\"mean_tpot_s\": %.9g, \"hit_rate\": %.6g, \"host_hits\": %llu, "
                  "\"gpu_fills_from_host\": %llu, \"gpu_fills_chained\": %llu, "
                  "\"stages_issued\": %llu, \"stages_landed\": %llu, \"host_spills\": %llu}",
                  c.host_gb, c.nvme_gbps, r.breakdown.demand_stall, r.mean_tpot, r.hit_rate,
                  static_cast<unsigned long long>(t.host_hits),
                  static_cast<unsigned long long>(t.gpu_fills_from_host),
                  static_cast<unsigned long long>(t.gpu_fills_chained),
                  static_cast<unsigned long long>(t.stages_issued),
                  static_cast<unsigned long long>(t.stages_landed),
                  static_cast<unsigned long long>(t.host_spills));
    out << row << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Render(const std::vector<Cell>& cells, const std::vector<ExperimentResult>& results,
           std::ostream& out) {
  AsciiTable table({"nvme GB/s", "host GiB", "stall ms", "TPOT ms", "hit %", "host hits",
                    "from-host", "chained", "spills", "vs 2-tier"});
  bool three_tier_win = false;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const ExperimentResult& r = results[i];
    // The host_gb = 0 cell at this bandwidth is the two-tier baseline this row compares to.
    double baseline_stall = r.breakdown.demand_stall;
    for (size_t b = 0; b < cells.size(); ++b) {
      if (cells[b].nvme_gbps == c.nvme_gbps && cells[b].host_gb == 0.0) {
        baseline_stall = results[b].breakdown.demand_stall;
      }
    }
    const TierStats& t = r.tier;
    const double delta = r.breakdown.demand_stall - baseline_stall;
    if (c.host_gb > 0.0 && delta < 0.0) {
      three_tier_win = true;
    }
    table.AddRow({AsciiTable::Num(c.nvme_gbps, 1), AsciiTable::Num(c.host_gb, 2),
                  bench::Ms(r.breakdown.demand_stall), bench::Ms(r.mean_tpot, 2),
                  bench::Pct(r.hit_rate), std::to_string(t.host_hits),
                  std::to_string(t.gpu_fills_from_host), std::to_string(t.gpu_fills_chained),
                  std::to_string(t.host_spills),
                  c.host_gb == 0.0 ? "baseline" : bench::Ms(delta)});
  }
  out << "Tiering sweep: fMoE on " << TinyTestConfig().name
      << ", GPU cache fixed, host pool x NVMe bandwidth\n";
  table.Print(out);
  out << "Expected shape: stall falls as the host pool grows (misses served from host RAM "
         "instead of\nNVMe); the win is largest at the lowest NVMe bandwidth. 'vs 2-tier' is "
         "the stall delta\nagainst the host=0 baseline at the same bandwidth (negative = "
         "three-tier wins).\n";
  out << "three-tier beats two-tier on >=1 swept config: "
      << (three_tier_win ? "yes" : "NO (unexpected)") << "\n";
  return three_tier_win ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  using namespace fmoe;
  std::vector<Cell> cells;
  return bench::BenchMain(
      argc, argv, "bench_tiering",
      "Multi-tier offload sweep: host-pool capacity x NVMe bandwidth on fMoE",
      [&](ExperimentPlan& plan, const bench::BenchEnv& env) { Declare(env.small, plan, &cells); },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        return Render(cells, results, out);
      },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        WriteJson(cells, results, out);
      });
}
