#include "src/serving/metrics.h"

#include "src/util/stats.h"

namespace fmoe {

double LatencyBreakdown::TotalSyncOverhead() const {
  double total = 0.0;
  for (double v : sync_overhead) {
    total += v;
  }
  return total;
}

double LatencyBreakdown::PolicyOverlappedSeconds() const {
  double total = 0.0;
  for (double v : async_work) {
    total += v;
  }
  return total;
}

double LatencyBreakdown::TotalIteration() const {
  return attention_compute + expert_compute + demand_stall + layer_overhead +
         TotalSyncOverhead();
}

void LatencyBreakdown::Accumulate(const LatencyBreakdown& other) {
  attention_compute += other.attention_compute;
  expert_compute += other.expert_compute;
  demand_stall += other.demand_stall;
  layer_overhead += other.layer_overhead;
  for (size_t i = 0; i < sync_overhead.size(); ++i) {
    sync_overhead[i] += other.sync_overhead[i];
    async_work[i] += other.async_work[i];
  }
}

void RunMetrics::RecordRequest(const RequestMetrics& request) { requests_.push_back(request); }

void RunMetrics::RecordIteration(double duration, bool is_prefill, uint64_t hits,
                                 uint64_t misses) {
  ++iterations_;
  iteration_records_.push_back(IterationRecord{duration, hits, misses, is_prefill});
  if (is_prefill) {
    prefill_latency_.Add();
  }
}

double RunMetrics::HitRate() const {
  const uint64_t total = expert_hits_ + expert_misses_;
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(expert_hits_) / static_cast<double>(total);
}

double RunMetrics::MeanTtft() const {
  std::vector<double> values;
  values.reserve(requests_.size());
  for (const auto& r : requests_) {
    values.push_back(r.Ttft());
  }
  return Mean(values);
}

double RunMetrics::MeanTpot() const {
  std::vector<double> values;
  for (const auto& r : requests_) {
    if (r.decode_iterations > 0) {
      values.push_back(r.Tpot());
    }
  }
  return Mean(values);
}

double RunMetrics::MeanEndToEnd() const {
  std::vector<double> values;
  values.reserve(requests_.size());
  for (const auto& r : requests_) {
    values.push_back(r.EndToEnd());
  }
  return Mean(values);
}

std::vector<double> RunMetrics::EndToEndLatencies() const {
  std::vector<double> values;
  values.reserve(requests_.size());
  for (const auto& r : requests_) {
    values.push_back(r.EndToEnd());
  }
  return values;
}

}  // namespace fmoe
