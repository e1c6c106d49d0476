// Metric accounting for serving runs: TTFT/TPOT per request, expert hit rates, and the
// per-iteration latency breakdown reported in Fig. 15.
#ifndef FMOE_SRC_SERVING_METRICS_H_
#define FMOE_SRC_SERVING_METRICS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/serving/deferred.h"
#include "src/serving/policy.h"
#include "src/util/histogram.h"

namespace fmoe {

struct RequestMetrics {
  uint64_t request_id = 0;
  double arrival_time = 0.0;
  double start_time = 0.0;    // When the engine began the prefill.
  double first_token_time = 0.0;
  double completion_time = 0.0;
  int decode_iterations = 0;

  // TTFT measures serving latency (prefill), excluding queueing delay; end-to-end latency
  // (the online-serving metric) includes it.
  double Ttft() const { return first_token_time - start_time; }
  double QueueingDelay() const { return start_time - arrival_time; }
  // Time-per-output-token over the decode phase.
  double Tpot() const {
    if (decode_iterations == 0) {
      return 0.0;
    }
    return (completion_time - first_token_time) / static_cast<double>(decode_iterations);
  }
  double EndToEnd() const { return completion_time - arrival_time; }
};

// Latency components of iterations, summed over a run.
struct LatencyBreakdown {
  double attention_compute = 0.0;
  double expert_compute = 0.0;
  double demand_stall = 0.0;  // On-demand loading + waiting for in-flight prefetches.
  double layer_overhead = 0.0;
  std::array<double, static_cast<size_t>(OverheadCategory::kCount)> sync_overhead = {};
  std::array<double, static_cast<size_t>(OverheadCategory::kCount)> async_work = {};

  double TotalSyncOverhead() const;
  double TotalIteration() const;  // Everything that extends the iteration.

  // Policy-overhead split (Fig. 15): seconds of policy work that extended iterations versus
  // seconds that ran on the background matcher worker, overlapped with forward compute.
  double PolicyCriticalPathSeconds() const { return TotalSyncOverhead(); }
  double PolicyOverlappedSeconds() const;

  void Accumulate(const LatencyBreakdown& other);
};

// Per-iteration sample retained for correlation analyses (Fig. 8) and breakdowns.
struct IterationRecord {
  double duration = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  bool is_prefill = false;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class RunMetrics {
 public:
  void RecordRequest(const RequestMetrics& request);
  void RecordHit() { ++expert_hits_; }
  void RecordMiss() { ++expert_misses_; }
  // Hit served from a reduced-precision copy (mixed-precision extension).
  void RecordLowPrecisionHit() { ++low_precision_hits_; }
  void RecordIteration(double duration, bool is_prefill, uint64_t hits, uint64_t misses);
  LatencyBreakdown& breakdown() { return breakdown_; }
  const LatencyBreakdown& breakdown() const { return breakdown_; }
  DeferredPipelineStats& deferred() { return deferred_; }
  const DeferredPipelineStats& deferred() const { return deferred_; }

  const std::vector<RequestMetrics>& requests() const { return requests_; }
  uint64_t expert_hits() const { return expert_hits_; }
  uint64_t expert_misses() const { return expert_misses_; }
  uint64_t low_precision_hits() const { return low_precision_hits_; }
  // Fraction of expert servings that used a reduced-precision copy (a quality-cost proxy).
  double LowPrecisionShare() const {
    const uint64_t total = expert_hits_ + expert_misses_;
    return total == 0 ? 0.0 : static_cast<double>(low_precision_hits_) /
                                  static_cast<double>(total);
  }
  uint64_t iterations() const { return iterations_; }

  double HitRate() const;
  double MeanTtft() const;
  double MeanTpot() const;
  double MeanEndToEnd() const;
  std::vector<double> EndToEndLatencies() const;

  // Counts the prefill iterations; their durations are in iteration_records().
  const LatencyHistogram& prefill_latency() const { return prefill_latency_; }
  const std::vector<IterationRecord>& iteration_records() const { return iteration_records_; }

 private:
  std::vector<RequestMetrics> requests_;
  std::vector<IterationRecord> iteration_records_;
  uint64_t expert_hits_ = 0;
  uint64_t expert_misses_ = 0;
  uint64_t low_precision_hits_ = 0;
  uint64_t iterations_ = 0;
  LatencyBreakdown breakdown_;
  DeferredPipelineStats deferred_;
  LatencyHistogram prefill_latency_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_METRICS_H_
