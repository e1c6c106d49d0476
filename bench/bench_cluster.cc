// Multi-replica cluster sweep for BENCH_cluster.json (DESIGN.md §5i).
//
// Sweeps replica count x router policy for the fMoE system on a queueing-bound online
// arrival trace (arrivals far above one engine's service rate, so a single replica builds a
// deep queue and scale-out pays off directly in makespan). Every cell serves the identical
// request list; only the routing changes. The run is virtual-time and single-seeded, so the
// committed baseline is exactly reproducible bit-for-bit.
//
// Expected shape: aggregate throughput (requests / cluster makespan) scales with replica
// count — R=4 must clear 2x the single-replica rate — and semantic-affinity routing must
// beat round-robin on expert hit rate at R=4: affinity sends each semantic cluster's
// requests to one replica, so that replica's map store and expert cache specialize instead
// of every replica relearning every cluster.
//
// Usage: bench_cluster [--small] [--json PATH]
//   --small      CI smoke configuration: fewer requests, R in {1, 4}.
//   --json PATH  Also write the results as JSON to PATH (the BENCH_cluster.json format).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/plan.h"
#include "src/harness/report.h"
#include "src/harness/runner.h"
#include "src/moe/model_config.h"
#include "src/serving/cluster.h"
#include "src/util/table.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

struct Cell {
  int replicas = 1;
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  size_t task = 0;
  ExperimentResult result;
};

ExperimentOptions BaseOptions(size_t requests, int replicas, RouterPolicy policy) {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = ShareGptLikeProfile();
  options.test_requests = requests;
  options.max_decode_tokens = 24;
  // Small store: per-replica capacity is scarce, so routing that narrows what each replica
  // must learn (affinity) shows up in match quality and hit rate.
  options.store_capacity = 24;
  options.replicas = replicas;
  options.router_policy = policy;
  return options;
}

void WriteJson(const std::vector<Cell>& cells, const ExperimentOptions& sample,
               size_t requests, double trace_rate, std::ostream& out) {
  out << "{\n";
  out << "  \"description\": \"Multi-replica cluster sweep (DESIGN.md \\u00a75i): replica "
         "count x router policy, fMoE system, online protocol on a queueing-bound arrival "
         "trace (tiny test model). aggregate_throughput_rps = requests / cluster makespan; "
         "R=1 rows are the single-engine online protocol. Virtual-time and single-seeded, so "
         "regeneration is bit-exact. Regenerate with: build/bench/bench_cluster --json "
         "BENCH_cluster.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(sample.model.name)
      << "\", \"dataset\": \"" << JsonEscape(sample.dataset.name)
      << "\", \"system\": \"fMoE\", \"requests\": " << requests
      << ", \"trace_rate_rps\": " << trace_rate
      << ", \"store_capacity\": " << sample.store_capacity
      << ", \"cache_fraction\": " << sample.cache_fraction
      << ", \"memory_mode\": \"" << ClusterMemoryModeName(sample.cluster_memory) << "\"},\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"replicas\": %d, \"router_policy\": \"%s\", \"makespan_s\": %.9g, "
                  "\"aggregate_throughput_rps\": %.9g, \"mean_e2e_s\": %.9g, "
                  "\"hit_rate\": %.6g, \"mean_semantic_score\": %.6g}",
                  c.replicas, RouterPolicyName(c.policy), c.result.cluster.makespan,
                  c.result.cluster.aggregate_throughput_rps, c.result.mean_e2e,
                  c.result.hit_rate, c.result.mean_semantic_score);
    out << row << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Run(bool small, const std::string& json_path) {
  const size_t requests = small ? 48 : 128;
  // Arrivals ~12 req/s against a single tiny-model engine that serves a few req/s: the R=1
  // row is queueing-bound, so replica scale-out converts directly into makespan.
  const double trace_rate = 12.0;
  std::vector<int> replica_counts = small ? std::vector<int>{1, 4}
                                          : std::vector<int>{1, 2, 4};
  const std::vector<RouterPolicy> policies = {
      RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded, RouterPolicy::kSemanticAffinity};

  TraceProfile trace;
  trace.mean_arrival_rate = trace_rate;

  std::vector<Cell> cells;
  ExperimentPlan plan;
  for (const int replicas : replica_counts) {
    // One engine: the router never fires, so a single row covers all policies.
    for (const RouterPolicy policy :
         replicas == 1 ? std::vector<RouterPolicy>{RouterPolicy::kRoundRobin} : policies) {
      Cell cell;
      cell.replicas = replicas;
      cell.policy = policy;
      cell.task = plan.AddOnline("fMoE", BaseOptions(requests, replicas, policy), trace, requests);
      cells.push_back(std::move(cell));
    }
  }
  std::vector<ExperimentResult> results = RunPlan(plan);
  for (Cell& cell : cells) {
    cell.result = std::move(results[cell.task]);
  }

  double r1_rps = 0.0;
  double r4_best_rps = 0.0;
  double r4_rr_hit = 0.0;
  double r4_affinity_hit = 0.0;
  AsciiTable table({"replicas", "router", "makespan s", "agg rps", "e2e s", "hit %", "sem score"});
  for (const Cell& c : cells) {
    if (c.replicas == 1) {
      r1_rps = c.result.cluster.aggregate_throughput_rps;
    }
    if (c.replicas == 4) {
      r4_best_rps = std::max(r4_best_rps, c.result.cluster.aggregate_throughput_rps);
      if (c.policy == RouterPolicy::kRoundRobin) {
        r4_rr_hit = c.result.hit_rate;
      }
      if (c.policy == RouterPolicy::kSemanticAffinity) {
        r4_affinity_hit = c.result.hit_rate;
      }
    }
    table.AddRow({std::to_string(c.replicas), RouterPolicyName(c.policy),
                  AsciiTable::Num(c.result.cluster.makespan, 2),
                  AsciiTable::Num(c.result.cluster.aggregate_throughput_rps, 2),
                  AsciiTable::Num(c.result.mean_e2e, 3), bench::Pct(c.result.hit_rate),
                  AsciiTable::Num(c.result.mean_semantic_score, 4)});
  }
  std::printf("Cluster sweep: fMoE on %s, %zu requests at %.0f req/s arrivals\n",
              TinyTestConfig().name.c_str(), requests, trace_rate);
  table.Print(std::cout);

  const bool throughput_scales = r4_best_rps >= 2.0 * r1_rps;
  const bool affinity_wins = r4_affinity_hit > r4_rr_hit;
  std::printf(
      "Expected shape: aggregate throughput scales with replicas (queueing-bound trace); "
      "affinity\nrouting specializes each replica's map store, lifting its expert hit "
      "rate over round-robin.\n");
  std::printf("R=4 throughput >= 2x R=1 (%.2f vs %.2f rps): %s\n", r4_best_rps, r1_rps,
              throughput_scales ? "yes" : "NO (unexpected)");
  std::printf("R=4 semantic-affinity hit rate beats round-robin (%.4f vs %.4f): %s\n",
              r4_affinity_hit, r4_rr_hit, affinity_wins ? "yes" : "NO (unexpected)");

  if (!json_path.empty()) {
    const ExperimentOptions sample = BaseOptions(requests, 1, RouterPolicy::kRoundRobin);
    if (!bench::WriteJsonFile(json_path, [&](std::ostream& out) {
          WriteJson(cells, sample, requests, trace_rate, out);
        })) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return (throughput_scales && affinity_wins) ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_cluster [--small] [--json PATH]\n");
      return 1;
    }
  }
  return fmoe::Run(small, json_path);
}
