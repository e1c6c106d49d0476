#include "src/harness/plan.h"

#include "src/util/rng.h"

namespace fmoe {

size_t ExperimentPlan::Add(ExperimentTask task) {
  const size_t index = tasks_.size();
  if (task.options.seed == kSeedFromPlan) {
    task.options.seed = DeriveTaskSeed(plan_seed_, index);
  }
  tasks_.push_back(std::move(task));
  return index;
}

size_t ExperimentPlan::AddOffline(std::string system, ExperimentOptions options,
                                  std::vector<std::string> tags) {
  ExperimentTask task;
  task.system = std::move(system);
  task.options = std::move(options);
  task.mode = ExperimentMode::kOffline;
  task.tags = std::move(tags);
  return Add(std::move(task));
}

size_t ExperimentPlan::AddOnline(std::string system, ExperimentOptions options,
                                 TraceProfile trace, size_t request_count,
                                 std::vector<std::string> tags) {
  ExperimentTask task;
  task.system = std::move(system);
  task.options = std::move(options);
  task.mode = ExperimentMode::kOnline;
  task.trace = trace;
  task.request_count = request_count;
  task.tags = std::move(tags);
  return Add(std::move(task));
}

size_t ExperimentPlan::AddScheduled(std::string system, ExperimentOptions options,
                                    TraceProfile trace, size_t request_count,
                                    SchedulerOptions scheduler, std::vector<std::string> tags) {
  ExperimentTask task;
  task.system = std::move(system);
  task.options = std::move(options);
  task.mode = ExperimentMode::kScheduled;
  task.trace = trace;
  task.request_count = request_count;
  task.scheduler = scheduler;
  task.tags = std::move(tags);
  return Add(std::move(task));
}

std::vector<size_t> ExperimentPlan::IndicesWithTag(const std::string& tag) const {
  std::vector<size_t> indices;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].HasTag(tag)) {
      indices.push_back(i);
    }
  }
  return indices;
}

uint64_t ExperimentPlan::DeriveTaskSeed(uint64_t plan_seed, size_t task_index) {
  // Two SplitMix64 steps over a state mixing both inputs: one step alone maps nearby indices
  // to correlated outputs of a single additive orbit; stepping twice from the combined state
  // gives well-separated streams for sibling tasks.
  uint64_t state = plan_seed ^ (static_cast<uint64_t>(task_index) * 0x9e3779b97f4a7c15ULL);
  (void)SplitMix64(state);
  uint64_t seed = SplitMix64(state);
  // Never collide with the sentinel (the derived seed must stay stable once resolved).
  if (seed == kSeedFromPlan) {
    seed = SplitMix64(state);
  }
  return seed;
}

}  // namespace fmoe
