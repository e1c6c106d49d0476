// Victim-selection microbenchmark + end-to-end engine throughput for BENCH_cache.json.
//
// The "before" side of the micro section runs live against ReferenceExpertCache — the seed's
// O(n)-scan implementation preserved verbatim in src/cache/reference_cache.h — so the
// comparison never goes stale. Both caches execute the identical operation stream (same Rng
// seed, same insert/touch/decay schedule); the property tests separately prove they produce
// identical victims, so this file measures pure index throughput, not behavioral drift.
//
// The e2e section reruns the experiment harness presets on the current engine. The pre-change
// engine numbers cannot be rerun from this tree (the old engine is gone), so BENCH_cache.json
// embeds the figures recorded on the seed commit with this exact harness configuration.
//
// Usage: bench_cache [--small] [--out_json PATH]
//   --small          CI smoke configuration: fewer residents/ops, one e2e rep.
//   --out_json PATH  Also write the results as JSON to PATH; exit 1 if that fails.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cache/expert_cache.h"
#include "src/cache/reference_cache.h"
#include "src/harness/experiment.h"
#include "src/harness/systems.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

using Clock = std::chrono::steady_clock;

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Insert-under-pressure: cache full at `residents` entries, so every insert picks a victim.
// Identical stream for both cache types: fill, warm (touches + decay), then timed evicting
// inserts with periodic touches and decays.
template <typename Cache>
double MicroVictimRate(EvictionRule rule, size_t residents, int ops) {
  const uint64_t bytes = 1024;
  Cache cache(residents * bytes, rule);
  Rng rng(7);
  double now = 0.0;
  uint64_t next_key = 0;
  for (size_t i = 0; i < residents; ++i) {
    CacheEntry e;
    e.key = next_key++;
    e.bytes = bytes;
    e.prefetch_pending = false;
    e.probability = 0.001 + 0.999 * rng.NextDouble();
    e.last_access = now;
    now += 1e-4;
    cache.Insert(e, now, nullptr);
  }
  for (int iter = 0; iter < 50; ++iter) {
    for (int t = 0; t < 64; ++t) {
      const uint64_t k = rng.Next() % next_key;
      if (cache.Contains(k)) {
        cache.Touch(k, now);
      }
      now += 1e-5;
    }
    cache.DecayFrequencies(0.6);
  }
  std::vector<CacheEntry> evicted;
  const auto start = Clock::now();
  for (int i = 0; i < ops; ++i) {
    CacheEntry e;
    e.key = next_key++;
    e.bytes = bytes;
    e.prefetch_pending = false;
    e.probability = 0.001 + 0.999 * rng.NextDouble();
    e.last_access = now;
    cache.Insert(e, now, &evicted);
    now += 1e-5;
    if ((i & 15) == 0) {
      const uint64_t k = next_key - 1 - (rng.Next() % residents);
      if (cache.Contains(k)) {
        cache.Touch(k, now);
      }
    }
    if ((i & 63) == 0) {
      cache.DecayFrequencies(0.6);
    }
  }
  const auto stop = Clock::now();
  return ops / Secs(start, stop);
}

struct MicroRow {
  std::string policy;
  size_t residents = 0;
  double before_per_sec = 0.0;
  double after_per_sec = 0.0;
};

struct E2eRow {
  std::string model;
  std::string system;
  uint64_t iterations = 0;
  double iters_per_sec = 0.0;
};

E2eRow RunE2e(const char* system, const ModelConfig& model, const char* tag) {
  ExperimentOptions options;
  options.model = model;
  options.dataset = LmsysLikeProfile();
  options.history_requests = 12;
  options.test_requests = 10;
  options.max_decode_tokens = 24;
  options.store_capacity = 64;
  options.prefetch_distance = 3;
  options.cache_fraction = 0.22;
  options.seed = 42;
  const auto start = Clock::now();
  const ExperimentResult result = RunOffline(system, options);
  const auto stop = Clock::now();
  E2eRow row;
  row.model = tag;
  row.system = system;
  row.iterations = result.iterations;
  row.iters_per_sec = static_cast<double>(result.iterations) / Secs(start, stop);
  return row;
}

int Main(int argc, char** argv) {
  bench::BenchFlags env;
  int exit_code = 0;
  if (!bench::ParseBenchArgs(argc, argv, "bench_cache",
                             "Victim-selection micro benchmark + end-to-end engine throughput",
                             &env, &exit_code)) {
    return exit_code;
  }
  const bool small = env.small;

  const std::vector<size_t> resident_counts =
      small ? std::vector<size_t>{256, 1024} : std::vector<size_t>{256, 1024, 4096};
  const int ops = small ? 4000 : 20000;
  const int e2e_reps = small ? 1 : 3;

  std::vector<MicroRow> micro;
  for (const char* name : {"LRU", "LFU", "fMoE-PriorityLFU"}) {
    const EvictionRule rule = EvictionRuleNamed(name);
    for (const size_t n : resident_counts) {
      MicroRow row;
      row.policy = name;
      row.residents = n;
      row.before_per_sec = MicroVictimRate<ReferenceExpertCache>(rule, n, ops);
      row.after_per_sec = MicroVictimRate<ExpertCache>(rule, n, ops);
      micro.push_back(row);
      std::printf("micro policy=%s residents=%zu before=%.0f/s after=%.0f/s speedup=%.1fx\n",
                  row.policy.c_str(), row.residents, row.before_per_sec, row.after_per_sec,
                  row.after_per_sec / row.before_per_sec);
    }
  }

  std::vector<E2eRow> e2e;
  for (int rep = 0; rep < e2e_reps; ++rep) {
    e2e.push_back(RunE2e("DeepSpeed-Inference", QwenMoeConfig(), "qwen"));
    e2e.push_back(RunE2e("MoE-Infinity", QwenMoeConfig(), "qwen"));
    e2e.push_back(RunE2e("fMoE", QwenMoeConfig(), "qwen"));
    e2e.push_back(RunE2e("MoE-Infinity", MixtralConfig(), "mixtral"));
  }
  for (const E2eRow& row : e2e) {
    std::printf("e2e model=%s system=%s iterations=%llu iters_per_sec=%.1f\n",
                row.model.c_str(), row.system.c_str(),
                static_cast<unsigned long long>(row.iterations), row.iters_per_sec);
  }

  if (!env.out_json.empty()) {
    const bool ok = bench::WriteJsonFile(env.out_json, [&](std::ostream& out) {
      out << "{\n  \"micro_victim_selection\": [\n";
      for (size_t i = 0; i < micro.size(); ++i) {
        const MicroRow& r = micro[i];
        out << "    {\"policy\": \"" << r.policy << "\", \"residents\": " << r.residents
            << ", \"reference_inserts_per_sec\": " << static_cast<uint64_t>(r.before_per_sec)
            << ", \"indexed_inserts_per_sec\": " << static_cast<uint64_t>(r.after_per_sec)
            << ", \"speedup\": "
            << static_cast<double>(static_cast<uint64_t>(10.0 * r.after_per_sec /
                                                         r.before_per_sec)) /
                   10.0
            << "}" << (i + 1 < micro.size() ? "," : "") << "\n";
      }
      out << "  ],\n  \"e2e_current\": [\n";
      for (size_t i = 0; i < e2e.size(); ++i) {
        const E2eRow& r = e2e[i];
        out << "    {\"model\": \"" << r.model << "\", \"system\": \"" << r.system
            << "\", \"iterations\": " << r.iterations << ", \"iters_per_sec\": "
            << static_cast<double>(static_cast<uint64_t>(10.0 * r.iters_per_sec)) / 10.0 << "}"
            << (i + 1 < e2e.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
    });
    if (!ok) {
      return 1;
    }
    std::printf("wrote %s\n", env.out_json.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) { return fmoe::Main(argc, argv); }
