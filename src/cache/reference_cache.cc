#include "src/cache/reference_cache.h"

#include <algorithm>

#include "src/util/logging.h"

namespace fmoe {

ReferenceExpertCache::ReferenceExpertCache(uint64_t capacity_bytes,
                                           const EvictionPolicy* policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {
  FMOE_CHECK(policy != nullptr);
}

CacheEntry* ReferenceExpertCache::Find(uint64_t key) {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

const CacheEntry* ReferenceExpertCache::Find(uint64_t key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

bool ReferenceExpertCache::PickVictim(double now, uint64_t* victim) const {
  bool found = false;
  double best_score = 0.0;
  for (const auto& [key, entry] : entries_) {
    if (entry.pin_count > 0) {
      continue;
    }
    const double score = policy_->EvictionScore(entry, now);
    if (!found || score > best_score) {
      found = true;
      best_score = score;
      *victim = key;
    }
  }
  return found;
}

bool ReferenceExpertCache::Insert(const CacheEntry& entry, double now,
                                  std::vector<CacheEntry>* evicted) {
  if (entries_.contains(entry.key)) {
    return false;
  }
  if (entry.bytes > effective_capacity_bytes()) {
    ++stats_.rejected_insertions;
    return false;
  }
  // Tentatively evict until the entry fits; roll back if we run out of victims.
  std::vector<CacheEntry> victims;
  while (used_bytes_ + entry.bytes > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    if (!PickVictim(now, &victim_key)) {
      // Roll back: victims go home.
      for (const CacheEntry& v : victims) {
        entries_.emplace(v.key, v);
        used_bytes_ += v.bytes;
      }
      ++stats_.rejected_insertions;
      return false;
    }
    const auto it = entries_.find(victim_key);
    victims.push_back(it->second);
    used_bytes_ -= it->second.bytes;
    entries_.erase(it);
  }
  entries_.emplace(entry.key, entry);
  used_bytes_ += entry.bytes;
  ++stats_.insertions;
  stats_.evictions += victims.size();
  if (evicted != nullptr) {
    *evicted = std::move(victims);
  }
  return true;
}

bool ReferenceExpertCache::SetReservation(uint64_t bytes, double now,
                                          std::vector<CacheEntry>* evicted) {
  reserved_bytes_ = bytes;
  std::vector<CacheEntry> victims;
  while (used_bytes_ > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    if (!PickVictim(now, &victim_key)) {
      break;  // Only pinned entries left; best effort until pins release.
    }
    const auto it = entries_.find(victim_key);
    victims.push_back(it->second);
    used_bytes_ -= it->second.bytes;
    entries_.erase(it);
  }
  stats_.evictions += victims.size();
  if (evicted != nullptr) {
    *evicted = std::move(victims);
  }
  return used_bytes_ <= effective_capacity_bytes();
}

bool ReferenceExpertCache::Remove(uint64_t key, CacheEntry* removed) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  FMOE_CHECK_MSG(it->second.pin_count == 0, "removing pinned expert " << key);
  if (removed != nullptr) {
    *removed = it->second;
  }
  used_bytes_ -= it->second.bytes;
  entries_.erase(it);
  return true;
}

void ReferenceExpertCache::Touch(uint64_t key, double now) {
  CacheEntry* entry = Find(key);
  FMOE_CHECK_MSG(entry != nullptr, "touching absent expert " << key);
  entry->frequency += 1.0;
  entry->last_access = now;
}

void ReferenceExpertCache::DecayFrequencies(double factor) {
  FMOE_CHECK(factor > 0.0 && factor <= 1.0);
  for (auto& [key, entry] : entries_) {
    entry.frequency *= factor;
  }
}

void ReferenceExpertCache::SetProbability(uint64_t key, double probability) {
  CacheEntry* entry = Find(key);
  if (entry != nullptr) {
    entry->probability = probability;
  }
}

void ReferenceExpertCache::Pin(uint64_t key) {
  CacheEntry* entry = Find(key);
  FMOE_CHECK_MSG(entry != nullptr, "pinning absent expert " << key);
  ++entry->pin_count;
}

void ReferenceExpertCache::Unpin(uint64_t key) {
  CacheEntry* entry = Find(key);
  FMOE_CHECK_MSG(entry != nullptr, "unpinning absent expert " << key);
  FMOE_CHECK(entry->pin_count > 0);
  --entry->pin_count;
}

std::vector<uint64_t> ReferenceExpertCache::EvictionOrder(double now) const {
  std::vector<std::pair<double, uint64_t>> scored;
  scored.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (entry.pin_count > 0) {
      continue;
    }
    scored.emplace_back(policy_->EvictionScore(entry, now), key);
  }
  // Stable over map order: equal scores stay in iteration order, as PickVictim breaks ties.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<uint64_t> keys;
  keys.reserve(scored.size());
  for (const auto& [score, key] : scored) {
    keys.push_back(key);
  }
  return keys;
}

std::vector<uint64_t> ReferenceExpertCache::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    keys.push_back(key);
  }
  return keys;
}

}  // namespace fmoe
