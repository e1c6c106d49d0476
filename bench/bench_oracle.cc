// Policy optimality gap against the clairvoyant oracle (DESIGN.md §5k).
//
// Runs the offline 7:3 protocol for fMoE and the fMoE-LRU eviction ablation across a sweep
// of cache sizes, with the gate-decision recorder attached, and reports each cell's "% of
// clairvoyant optimum": how many of its expert accesses were served stall-free compared to a
// prophet that knows the full activation sequence in advance (Belady eviction + an
// earliest-start prefetch timeline over the same PCIe link). The run is virtual-time and
// single-seeded, so the committed BENCH_oracle.json baseline is reproducible bit-for-bit.
//
// Expected shape: the gap narrows as the cache grows (with everything resident, every policy
// is clairvoyant), and at every cache size fMoE's semantic prefetching sits closer to the
// oracle than the LRU ablation — that is the paper's headline claim restated as headroom.
// The process exit code asserts exactly that (the CI bench-smoke contract): fMoE must score
// >= fMoE-LRU in % of clairvoyant optimum at every cache size, else exit 2.
//
// Usage: bench_oracle [--small] [--out_json PATH] [bench flags; see --help]
//   --small          CI smoke configuration: fewer requests.
//   --out_json PATH  Also write the results as JSON to PATH (the BENCH_oracle.json format).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/moe/model_config.h"
#include "src/oracle/oracle.h"
#include "src/util/table.h"

namespace fmoe {
namespace {

constexpr double kCacheFractions[] = {0.12, 0.22, 0.32};

// One swept configuration; cells[i] describes plan task i.
struct Cell {
  std::string system;
  double cache_fraction = 0.0;
};

ExperimentOptions BaseOptions(bool small) {
  ExperimentOptions options = bench::SweepOptions(TinyTestConfig(), LmsysLikeProfile());
  if (small) {
    options.history_requests = 32;
    options.test_requests = 8;
  }
  options.oracle = true;
  return options;
}

void Declare(bool small, ExperimentPlan& plan, std::vector<Cell>* cells) {
  for (const double fraction : kCacheFractions) {
    for (const std::string system : {"fMoE", "fMoE-LRU"}) {
      ExperimentOptions options = BaseOptions(small);
      options.cache_fraction = fraction;
      plan.AddOffline(system, options,
                      {"cache=" + AsciiTable::Num(fraction * 100, 0) + "%", "system=" + system});
      cells->push_back({system, fraction});
    }
  }
}

void WriteJson(const std::vector<Cell>& cells, const std::vector<ExperimentResult>& results,
               bool small, std::ostream& out) {
  out << "{\n";
  out << "  \"description\": \"Optimality gap against the clairvoyant oracle (DESIGN.md "
         "\\u00a75k): offline 7:3 protocol on the tiny test model for fMoE and the fMoE-LRU "
         "eviction ablation across cache sizes, each scored as % of the Belady + "
         "prefetch-timeline lower bound. Virtual-time and single-seeded, so regeneration is "
         "bit-exact. Regenerate with: build/bench/bench_oracle --out_json BENCH_oracle.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(TinyTestConfig().name)
      << "\", \"dataset\": \"" << JsonEscape(LmsysLikeProfile().name)
      << "\", \"small\": " << (small ? "true" : "false")
      << ", \"seed\": " << BaseOptions(small).seed << "},\n";
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const OracleReport& o = results[i].oracle;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"system\": \"%s\", \"cache_fraction\": %.9g, \"hit_rate\": %.6g, "
                  "\"accesses\": %llu, \"policy_misses\": %llu, \"oracle_misses\": %llu, "
                  "\"policy_stall_s\": %.9g, \"oracle_stall_s\": %.9g, \"miss_gap\": %.9g, "
                  "\"stall_gap\": %.9g, \"pct_of_clairvoyant\": %.9g}",
                  c.system.c_str(), c.cache_fraction, results[i].hit_rate,
                  static_cast<unsigned long long>(o.accesses),
                  static_cast<unsigned long long>(o.policy_misses),
                  static_cast<unsigned long long>(o.oracle_misses), o.policy_stall_s,
                  o.oracle_stall_s, o.miss_gap, o.stall_gap, o.pct_of_clairvoyant);
    out << row << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Render(const std::vector<Cell>& cells, const std::vector<ExperimentResult>& results,
           std::ostream& out) {
  AsciiTable table({"cache", "system", "% of optimum", "miss gap", "stall gap", "hit %",
                    "policy stall (ms)", "oracle stall (ms)"});
  for (size_t i = 0; i < cells.size(); ++i) {
    const OracleReport& o = results[i].oracle;
    table.AddRow({AsciiTable::Num(cells[i].cache_fraction * 100, 0) + "%", cells[i].system,
                  AsciiTable::Num(o.pct_of_clairvoyant, 1), AsciiTable::Num(o.miss_gap, 3),
                  AsciiTable::Num(o.stall_gap, 3), bench::Pct(results[i].hit_rate),
                  bench::Ms(o.policy_stall_s), bench::Ms(o.oracle_stall_s)});
  }
  out << "Optimality gap vs the clairvoyant oracle: offline 7:3 on " << TinyTestConfig().name
      << "\n";
  table.Print(out);

  // The exit-code contract: at every cache size, fMoE captures at least as much of the
  // clairvoyant optimum as the LRU eviction ablation.
  bool ok = true;
  for (const double fraction : kCacheFractions) {
    double fmoe_pct = 0.0;
    double lru_pct = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].cache_fraction == fraction) {
        (cells[i].system == "fMoE" ? fmoe_pct : lru_pct) = results[i].oracle.pct_of_clairvoyant;
      }
    }
    const bool cell_ok = fmoe_pct >= lru_pct;
    ok = ok && cell_ok;
    out << "fMoE >= fMoE-LRU in % of optimum at " << AsciiTable::Num(fraction * 100, 0)
        << "% cache: " << (cell_ok ? "yes" : "NO (unexpected)") << " ("
        << AsciiTable::Num(fmoe_pct, 1) << "% vs " << AsciiTable::Num(lru_pct, 1) << "%)\n";
  }
  out << "Expected shape: the gap narrows as the cache grows, and fMoE's semantic prefetching\n"
         "sits closer to the oracle than LRU eviction at every size.\n";
  return ok ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  using namespace fmoe;
  std::vector<Cell> cells;
  bool small = false;
  return bench::BenchMain(
      argc, argv, "bench_oracle",
      "Optimality gap of fMoE and fMoE-LRU against the clairvoyant oracle across cache sizes",
      [&](ExperimentPlan& plan, const bench::BenchEnv& env) {
        small = env.small;
        Declare(small, plan, &cells);
      },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        return Render(cells, results, out);
      },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        WriteJson(cells, results, small, out);
      });
}
