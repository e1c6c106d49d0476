// Naive linear-scan expert cache: the pre-index implementation, kept as an executable
// specification. The property tests drive it side by side with the indexed ExpertCache under
// random operation streams and demand identical victim sequences, byte accounting, and stats;
// bench_cache uses it as the "before" side of the victim-selection microbenchmark. Do not
// optimize this class — its O(n) scans and eager decay sweeps ARE the semantics the indexed
// cache must reproduce bit for bit. Equal eviction scores go to the newest insert: each entry
// carries the rank ~insert_count, and the smaller rank wins.
#ifndef FMOE_SRC_CACHE_REFERENCE_CACHE_H_
#define FMOE_SRC_CACHE_REFERENCE_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/expert_cache.h"

namespace fmoe {

class ReferenceExpertCache {
 public:
  ReferenceExpertCache(uint64_t capacity_bytes, EvictionRule rule);

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  uint64_t effective_capacity_bytes() const {
    return capacity_bytes_ > reserved_bytes_ ? capacity_bytes_ - reserved_bytes_ : 0;
  }
  size_t size() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

  bool Contains(uint64_t key) const { return entries_.contains(key); }
  CacheEntry* Find(uint64_t key);
  const CacheEntry* Find(uint64_t key) const;

  bool Insert(const CacheEntry& entry, double now, std::vector<CacheEntry>* evicted);
  bool Remove(uint64_t key, CacheEntry* removed);
  bool SetReservation(uint64_t bytes, double now, std::vector<CacheEntry>* evicted);
  void Touch(uint64_t key, double now);
  void SetProbability(uint64_t key, double probability);
  void Pin(uint64_t key);
  void Unpin(uint64_t key);
  void DecayFrequencies(double factor);
  std::vector<uint64_t> EvictionOrder(double now) const;
  std::vector<uint64_t> Keys() const;

 private:
  struct Resident {
    CacheEntry entry;
    uint64_t rank = 0;  // ~insert_count: smaller is newer.
  };

  bool PickVictim(double now, uint64_t* victim) const;

  uint64_t capacity_bytes_;
  uint64_t reserved_bytes_ = 0;
  EvictionRule rule_;
  uint64_t used_bytes_ = 0;
  uint64_t insert_count_ = 0;
  std::map<uint64_t, Resident> entries_;
  CacheStats stats_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_REFERENCE_CACHE_H_
