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
// Usage: bench_cluster [--small] [--out_json PATH] [bench flags; see --help]
//   --small          CI smoke configuration: fewer requests, R in {1, 4}.
//   --out_json PATH  Also write the results as JSON to PATH (the BENCH_cluster.json format).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/moe/model_config.h"
#include "src/serving/cluster.h"
#include "src/util/table.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

// Arrivals ~12 req/s against a single tiny-model engine that serves a few req/s: the R=1 row
// is queueing-bound, so replica scale-out converts directly into makespan.
constexpr double kTraceRate = 12.0;

// One swept configuration; cells[i] describes plan task i.
struct Cell {
  int replicas = 1;
  RouterPolicy policy = RouterPolicy::kRoundRobin;
};

// The sweep: its request count (set by --small) and its cells.
struct Sweep {
  size_t requests = 0;
  std::vector<Cell> cells;
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

void Declare(bool small, ExperimentPlan& plan, Sweep* sweep) {
  sweep->requests = small ? 48 : 128;
  const std::vector<int> replica_counts = small ? std::vector<int>{1, 4}
                                                : std::vector<int>{1, 2, 4};
  const std::vector<RouterPolicy> policies = {
      RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded, RouterPolicy::kSemanticAffinity};
  TraceProfile trace;
  trace.mean_arrival_rate = kTraceRate;
  for (const int replicas : replica_counts) {
    // One engine: the router never fires, so a single row covers all policies.
    for (const RouterPolicy policy :
         replicas == 1 ? std::vector<RouterPolicy>{RouterPolicy::kRoundRobin} : policies) {
      plan.AddOnline("fMoE", BaseOptions(sweep->requests, replicas, policy), trace,
                     sweep->requests,
                     {"replicas=" + std::to_string(replicas),
                      std::string("router=") + RouterPolicyName(policy)});
      sweep->cells.push_back({replicas, policy});
    }
  }
}

void WriteJson(const Sweep& sweep, const std::vector<ExperimentResult>& results,
               std::ostream& out) {
  const ExperimentOptions sample = BaseOptions(sweep.requests, 1, RouterPolicy::kRoundRobin);
  out << "{\n";
  out << "  \"description\": \"Multi-replica cluster sweep (DESIGN.md \\u00a75i): replica "
         "count x router policy, fMoE system, online protocol on a queueing-bound arrival "
         "trace (tiny test model). aggregate_throughput_rps = requests / cluster makespan; "
         "R=1 rows are the single-engine online protocol. Virtual-time and single-seeded, so "
         "regeneration is bit-exact. Regenerate with: build/bench/bench_cluster --out_json "
         "BENCH_cluster.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(sample.model.name)
      << "\", \"dataset\": \"" << JsonEscape(sample.dataset.name)
      << "\", \"system\": \"fMoE\", \"requests\": " << sweep.requests
      << ", \"trace_rate_rps\": " << kTraceRate
      << ", \"store_capacity\": " << sample.store_capacity
      << ", \"cache_fraction\": " << sample.cache_fraction
      << ", \"memory_mode\": \"" << ClusterMemoryModeName(sample.cluster_memory) << "\"},\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const Cell& c = sweep.cells[i];
    const ExperimentResult& r = results[i];
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"replicas\": %d, \"router_policy\": \"%s\", \"makespan_s\": %.9g, "
                  "\"aggregate_throughput_rps\": %.9g, \"mean_e2e_s\": %.9g, "
                  "\"hit_rate\": %.6g, \"mean_semantic_score\": %.6g}",
                  c.replicas, RouterPolicyName(c.policy), r.cluster.makespan,
                  r.cluster.aggregate_throughput_rps, r.mean_e2e, r.hit_rate,
                  r.mean_semantic_score);
    out << row << (i + 1 < sweep.cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Render(const Sweep& sweep, const std::vector<ExperimentResult>& results,
           std::ostream& out) {
  double r1_rps = 0.0;
  double r4_best_rps = 0.0;
  double r4_rr_hit = 0.0;
  double r4_affinity_hit = 0.0;
  AsciiTable table({"replicas", "router", "makespan s", "agg rps", "e2e s", "hit %", "sem score"});
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const Cell& c = sweep.cells[i];
    const ExperimentResult& r = results[i];
    if (c.replicas == 1) {
      r1_rps = r.cluster.aggregate_throughput_rps;
    }
    if (c.replicas == 4) {
      r4_best_rps = std::max(r4_best_rps, r.cluster.aggregate_throughput_rps);
      if (c.policy == RouterPolicy::kRoundRobin) {
        r4_rr_hit = r.hit_rate;
      }
      if (c.policy == RouterPolicy::kSemanticAffinity) {
        r4_affinity_hit = r.hit_rate;
      }
    }
    table.AddRow({std::to_string(c.replicas), RouterPolicyName(c.policy),
                  AsciiTable::Num(r.cluster.makespan, 2),
                  AsciiTable::Num(r.cluster.aggregate_throughput_rps, 2),
                  AsciiTable::Num(r.mean_e2e, 3), bench::Pct(r.hit_rate),
                  AsciiTable::Num(r.mean_semantic_score, 4)});
  }
  out << "Cluster sweep: fMoE on " << TinyTestConfig().name << ", " << sweep.requests
      << " requests at " << AsciiTable::Num(kTraceRate, 0) << " req/s arrivals\n";
  table.Print(out);

  const bool throughput_scales = r4_best_rps >= 2.0 * r1_rps;
  const bool affinity_wins = r4_affinity_hit > r4_rr_hit;
  out << "Expected shape: aggregate throughput scales with replicas (queueing-bound trace); "
         "affinity\nrouting specializes each replica's map store, lifting its expert hit "
         "rate over round-robin.\n";
  out << "R=4 throughput >= 2x R=1 (" << AsciiTable::Num(r4_best_rps, 2) << " vs "
      << AsciiTable::Num(r1_rps, 2) << " rps): " << (throughput_scales ? "yes" : "NO (unexpected)")
      << "\n";
  out << "R=4 semantic-affinity hit rate beats round-robin ("
      << AsciiTable::Num(r4_affinity_hit, 4) << " vs " << AsciiTable::Num(r4_rr_hit, 4)
      << "): " << (affinity_wins ? "yes" : "NO (unexpected)") << "\n";
  return throughput_scales && affinity_wins ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  using namespace fmoe;
  Sweep sweep;
  return bench::BenchMain(
      argc, argv, "bench_cluster",
      "Multi-replica cluster sweep: replica count x router policy on fMoE",
      [&](ExperimentPlan& plan, const bench::BenchEnv& env) { Declare(env.small, plan, &sweep); },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        return Render(sweep, results, out);
      },
      [&](const std::vector<ExperimentResult>& results, std::ostream& out) {
        WriteJson(sweep, results, out);
      });
}
