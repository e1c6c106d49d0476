// Eviction rules for the expert cache.
//
// The paper compares three (§6.5, Fig. 12b): LRU (Mixtral-Offloading), LFU (MoE-Infinity), and
// fMoE's probability-weighted LFU with eviction priority 1 / (p_{l,j} * freq_{l,j}). A rule
// assigns each cache entry an eviction score; the cache evicts the unpinned entry with the
// highest score first.
#ifndef FMOE_SRC_CACHE_EVICTION_POLICY_H_
#define FMOE_SRC_CACHE_EVICTION_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <string>

namespace fmoe {

// Floors that keep eviction scores finite for never-hit / zero-probability entries while
// preserving ordering (a never-hit entry is always a better victim than a hit one).
inline constexpr double kEvictionFrequencyFloor = 0.5;
inline constexpr double kEvictionProbabilityFloor = 1e-4;

// Bookkeeping the cache maintains per resident expert.
struct CacheEntry {
  uint64_t key = 0;        // Flat expert index.
  uint64_t bytes = 0;
  double ready_at = 0.0;   // Simulated time its host->device transfer completes.
  double last_access = 0.0;
  double frequency = 0.0;  // Aged cache-hit count (LFU signal); decays once per iteration.
  double probability = 0.0;  // Activation probability from the matched expert map (fMoE).
  int pin_count = 0;       // Pinned entries (in use / in flight) are not evictable.
  bool prefetch_pending = true;  // True until the transfer has started on the link.
  uint64_t transfer_tag = 0;     // Link-transfer tag of the pending prefetch (0 = none).
  bool reduced_precision = false;  // Weights resident at reduced precision (lossy extension).
};

enum class EvictionRule {
  kLru,          // "LRU": evict the oldest access.
  kLfu,          // "LFU" (MoE-Infinity): evict the lowest hit count.
  kPriorityLfu,  // "fMoE-PriorityLFU": PRI^evict = 1 / (p * freq).
};

// Parses a rule name ("LRU", "LFU", "fMoE-PriorityLFU"). False on any other name, leaving
// *rule unchanged.
bool ParseEvictionRule(const std::string& name, EvictionRule* rule);
// The rule a config names; aborts on an unknown name (front ends validate with
// ParseEvictionRule first).
EvictionRule EvictionRuleNamed(const std::string& name);

// Higher score = evicted sooner. Only LRU reads `now` (the score is the age
// now - last_access); LFU reads the frequency, PriorityLFU the frequency and the probability.
inline double EvictionScore(EvictionRule rule, double last_access, double frequency,
                            double probability, double now) {
  switch (rule) {
    case EvictionRule::kLru:
      return now - last_access;
    case EvictionRule::kLfu:
      return 1.0 / std::max(frequency, kEvictionFrequencyFloor);
    case EvictionRule::kPriorityLfu:
      break;
  }
  return 1.0 / (std::max(probability, kEvictionProbabilityFloor) *
                std::max(frequency, kEvictionFrequencyFloor));
}

inline double EvictionScore(EvictionRule rule, const CacheEntry& entry, double now) {
  return EvictionScore(rule, entry.last_access, entry.frequency, entry.probability, now);
}

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_EVICTION_POLICY_H_
