#include "src/cache/eviction_policy.h"

#include <algorithm>

#include "src/util/logging.h"

namespace fmoe {
namespace {

constexpr double kMinFrequency = kEvictionFrequencyFloor;
constexpr double kMinProbability = kEvictionProbabilityFloor;

}  // namespace

double LruEvictionPolicy::EvictionScore(const CacheEntry& entry, double now) const {
  // Older last access => larger (now - last_access) => evicted first.
  return now - entry.last_access;
}

double LfuEvictionPolicy::EvictionScore(const CacheEntry& entry, double /*now*/) const {
  const double freq = std::max(entry.frequency, kMinFrequency);
  return 1.0 / freq;
}

double PriorityLfuEvictionPolicy::EvictionScore(const CacheEntry& entry, double /*now*/) const {
  const double freq = std::max(entry.frequency, kMinFrequency);
  const double prob = std::max(entry.probability, kMinProbability);
  return 1.0 / (prob * freq);
}

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(const std::string& name) {
  if (name == "LRU") {
    return std::make_unique<LruEvictionPolicy>();
  }
  if (name == "LFU") {
    return std::make_unique<LfuEvictionPolicy>();
  }
  if (name == "fMoE-PriorityLFU") {
    return std::make_unique<PriorityLfuEvictionPolicy>();
  }
  FMOE_CHECK_MSG(false, "unknown eviction policy: " << name);
}

}  // namespace fmoe
