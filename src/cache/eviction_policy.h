// Eviction policies for the expert cache.
//
// The paper compares three (§6.5, Fig. 12b): LRU (Mixtral-Offloading), LFU (MoE-Infinity), and
// fMoE's probability-weighted LFU with eviction priority 1 / (p_{l,j} * freq_{l,j}). A policy
// assigns each cache entry an eviction score; the cache evicts the unpinned entry with the
// highest score first.
#ifndef FMOE_SRC_CACHE_EVICTION_POLICY_H_
#define FMOE_SRC_CACHE_EVICTION_POLICY_H_

#include <cstdint>
#include <memory>
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

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual std::string name() const = 0;
  // Higher score = evicted sooner.
  virtual double EvictionScore(const CacheEntry& entry, double now) const = 0;
  // True when EvictionScore is exactly the age `now - entry.last_access`: the cache then keeps
  // last_access in its score column and the victim scan computes the age. Otherwise the score
  // must not depend on `now`, and the cache keeps the score itself.
  virtual bool score_is_age() const { return false; }
  // Whether EvictionScore depends on the entry's frequency / probability. The cache uses
  // these to decide which mutations must refresh an entry's score.
  virtual bool uses_frequency() const { return false; }
  virtual bool uses_probability() const { return false; }
};

// Classic least-recently-used: evict the oldest access.
class LruEvictionPolicy : public EvictionPolicy {
 public:
  std::string name() const override { return "LRU"; }
  double EvictionScore(const CacheEntry& entry, double now) const override;
  bool score_is_age() const override { return true; }
};

// Least-frequently-used (MoE-Infinity): evict the lowest hit count.
class LfuEvictionPolicy : public EvictionPolicy {
 public:
  std::string name() const override { return "LFU"; }
  double EvictionScore(const CacheEntry& entry, double now) const override;
  bool uses_frequency() const override { return true; }
};

// fMoE: PRI^evict = 1 / (p * freq); low-probability and rarely-hit experts go first.
class PriorityLfuEvictionPolicy : public EvictionPolicy {
 public:
  std::string name() const override { return "fMoE-PriorityLFU"; }
  double EvictionScore(const CacheEntry& entry, double now) const override;
  bool uses_frequency() const override { return true; }
  bool uses_probability() const override { return true; }
};

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(const std::string& name);

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_EVICTION_POLICY_H_
