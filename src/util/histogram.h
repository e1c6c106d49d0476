// What the run reports read of an iteration-latency histogram: how many samples it took.
//
// RunMetrics keeps every iteration's duration, hits and misses in iteration_records(); this
// type only counts the prefill samples for RunMetrics::prefill_latency().
#ifndef FMOE_SRC_UTIL_HISTOGRAM_H_
#define FMOE_SRC_UTIL_HISTOGRAM_H_

#include <cstddef>

namespace fmoe {

class LatencyHistogram {
 public:
  void Add() { ++count_; }
  size_t count() const { return count_; }

 private:
  size_t count_ = 0;
};

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_HISTOGRAM_H_
