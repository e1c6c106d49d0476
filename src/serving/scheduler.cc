#include "src/serving/scheduler.h"

#include "src/util/logging.h"

namespace fmoe {

ContinuousBatchScheduler::ContinuousBatchScheduler(ServingEngine* engine,
                                                   const SchedulerOptions& options)
    : engine_(engine), options_(options) {
  FMOE_CHECK(engine != nullptr);
  FMOE_CHECK(options.max_batch_size >= 1);
  ResetController();
}

ContinuousBatchScheduler::~ContinuousBatchScheduler() {
  // The engine outlives this scheduler; detach so it never dangles into a dead controller.
  engine_->SetAdmissionController(nullptr);
}

void ContinuousBatchScheduler::ResetController() {
  controller_ = std::make_unique<AdmissionController>(options_.admission);
  if (options_.admission.policy == AdmissionPolicyKind::kOpenLoop) {
    // Open loop never reads signals and never moves a knob: leave the engine detached so the
    // default configuration replays the legacy code path exactly (no signal feed, no
    // distance override), byte for byte.
    engine_->SetAdmissionController(nullptr);
  } else {
    engine_->SetAdmissionController(controller_.get());
  }
}

void ContinuousBatchScheduler::AdmitArrived(std::vector<Request>& queue, double now) {
  controller_->BeginAdmission(now);
  // Shed pass: drop arrived requests the controller rejects. Removal (not skipping) keeps
  // the run loop live — after this pass every arrived candidate is either admissible or
  // gone, so admission below always makes progress.
  for (size_t i = 0; i < queue.size();) {
    if (queue[i].arrival_time > now) {
      break;  // Queue is arrival-sorted: nothing further has arrived yet.
    }
    if (controller_->ShouldReject(queue[i], now)) {
      controller_->OnRejected();
      ++stats_.rejected_requests;
      queue.erase(queue.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  const int limit = controller_->BatchLimit(options_.max_batch_size, now);
  FMOE_CHECK(limit >= 1);
  while (!queue.empty() && engine_->ActiveRequests() < static_cast<size_t>(limit)) {
    // Candidates: requests that have arrived by `now`.
    size_t pick = queue.size();
    for (size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].arrival_time > now) {
        break;  // Queue is arrival-sorted: nothing further has arrived yet.
      }
      if (pick == queue.size()) {
        pick = i;
      } else if (options_.discipline == SchedulerOptions::QueueDiscipline::kShortestJobFirst &&
                 queue[i].decode_tokens < queue[pick].decode_tokens) {
        pick = i;
      }
    }
    if (pick == queue.size()) {
      return;  // Nothing has arrived.
    }
    engine_->AdmitRequest(queue[pick]);
    controller_->OnAdmitted();
    ++stats_.admitted_requests;
    queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick));
  }
}

std::vector<RequestMetrics> ContinuousBatchScheduler::Run(
    const std::vector<Request>& requests) {
  stats_ = SchedulerStats();
  ResetController();
  if (requests.empty()) {
    return {};
  }
  for (size_t i = 1; i < requests.size(); ++i) {
    FMOE_CHECK_MSG(requests[i].arrival_time >= requests[i - 1].arrival_time,
                   "requests must be sorted by arrival time");
  }
  FMOE_CHECK_MSG(requests.front().arrival_time >= engine_->now(),
                 "first arrival " << requests.front().arrival_time
                                  << " precedes the engine clock " << engine_->now()
                                  << "; shift the arrivals by engine.now()");

  std::vector<Request> queue = requests;
  std::vector<RequestMetrics> completed;
  const double first_arrival = queue.front().arrival_time;
  stats_.arrived_requests = requests.size();
  controller_->OnArrived(requests.size());

  uint64_t occupancy_sum = 0;
  while (!queue.empty() || engine_->ActiveRequests() > 0) {
    AdmitArrived(queue, engine_->now());
    if (engine_->ActiveRequests() == 0) {
      if (queue.empty()) {
        break;  // Everything left was shed.
      }
      // Idle: jump to the next arrival.
      engine_->AdvanceClockTo(queue.front().arrival_time);
      continue;
    }
    occupancy_sum += engine_->ActiveRequests();
    engine_->StepIteration();
    ++stats_.total_iterations;
    for (RequestMetrics& metrics : engine_->DrainCompleted()) {
      completed.push_back(metrics);
    }
  }

  stats_.served_requests = completed.size();
  stats_.makespan_sec = engine_->now() - first_arrival;
  stats_.mean_batch_occupancy =
      stats_.total_iterations > 0
          ? static_cast<double>(occupancy_sum) / static_cast<double>(stats_.total_iterations)
          : 0.0;
  return completed;
}

}  // namespace fmoe
