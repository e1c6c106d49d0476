// Continuous-batching online scheduler.
//
// An extension beyond the paper's single-request online protocol: requests queue on arrival
// and join the running batch at iteration boundaries, up to a configurable batch limit —
// the admission discipline of modern LLM serving engines (Orca/vLLM-style continuous
// batching), here layered on top of the offloading engine so expert-cache pressure from
// concurrent requests can be studied. fMoE's per-slot matchers make its policy naturally
// multi-tenant.
//
// Admission goes through one AdmissionController (DESIGN.md §5j): every batch-limit / shed
// decision is its call. Its default open-loop policy reproduces the historical fixed-knob
// behaviour bit for bit; the gradient policy closes the loop on the engine's classified
// demand stalls (see src/serving/admission.h).
#ifndef FMOE_SRC_SERVING_SCHEDULER_H_
#define FMOE_SRC_SERVING_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/serving/admission.h"
#include "src/serving/engine.h"

namespace fmoe {

struct SchedulerOptions {
  int max_batch_size = 4;   // Concurrent requests in the lockstep batch.
  // Admission order for queued requests: arrival order (FCFS) or shortest remaining
  // generation first (SJF; favours short requests under load, at fairness cost).
  enum class QueueDiscipline { kFcfs, kShortestJobFirst };
  QueueDiscipline discipline = QueueDiscipline::kFcfs;
  // Admission policy + controller knobs. The default (open-loop) replays the legacy
  // scheduler byte-identically.
  AdmissionOptions admission;
};

struct SchedulerStats {
  size_t served_requests = 0;
  uint64_t total_iterations = 0;
  double makespan_sec = 0.0;        // First arrival to last completion.
  double mean_batch_occupancy = 0.0;  // Average active requests per iteration.
  // Admission conservation counters: every request handed to Run is arrived, and leaves the
  // queue exactly once — admitted + rejected == arrived once the run drains (the
  // ControllerBookkeepingConsistent invariant; see admission.h). Open loop never rejects.
  size_t arrived_requests = 0;
  size_t admitted_requests = 0;
  size_t rejected_requests = 0;

  // Output tokens per second of wall-clock over the busy period.
  double Throughput(uint64_t total_tokens) const {
    return makespan_sec > 0.0 ? static_cast<double>(total_tokens) / makespan_sec : 0.0;
  }
};

class ContinuousBatchScheduler {
 public:
  ContinuousBatchScheduler(ServingEngine* engine, const SchedulerOptions& options);
  ~ContinuousBatchScheduler();

  // Serves every request (must be sorted by arrival time, the first arriving no earlier than
  // the engine's clock) to completion and returns their metrics in completion order. After a
  // warmup the clock has moved on: shift the arrivals by engine.now(), or every queueing delay
  // would include the warmup. Requests the controller sheds are dropped (counted in
  // stats().rejected_requests), so the result may be shorter than the input. Internal state
  // resets per call (a fresh controller per Run).
  std::vector<RequestMetrics> Run(const std::vector<Request>& requests);

  const SchedulerStats& stats() const { return stats_; }
  const AdmissionController& controller() const { return *controller_; }

 private:
  // Admits queued requests that have arrived, respecting the controller's batch limit and
  // the queue discipline; sheds arrived requests the controller rejects (removing them from
  // the queue, so a rejecting controller still drains it).
  void AdmitArrived(std::vector<Request>& queue, double now);

  // (Re)creates the controller and attaches it to the engine for closed-loop policies.
  void ResetController();

  ServingEngine* engine_;  // Not owned.
  SchedulerOptions options_;
  SchedulerStats stats_;
  std::unique_ptr<AdmissionController> controller_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_SCHEDULER_H_
