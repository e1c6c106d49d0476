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
  return it == entries_.end() ? nullptr : &it->second.entry;
}

const CacheEntry* ReferenceExpertCache::Find(uint64_t key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

bool ReferenceExpertCache::PickVictim(double now, uint64_t* victim) const {
  bool found = false;
  double best_score = 0.0;
  uint64_t best_rank = 0;
  for (const auto& [key, resident] : entries_) {
    if (resident.entry.pin_count > 0) {
      continue;
    }
    const double score = policy_->EvictionScore(resident.entry, now);
    if (!found || score > best_score || (score == best_score && resident.rank < best_rank)) {
      found = true;
      best_score = score;
      best_rank = resident.rank;
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
  // Reject before evicting anything when the entry cannot fit beside the pinned bytes.
  uint64_t pinned_bytes = 0;
  for (const auto& [key, resident] : entries_) {
    if (resident.entry.pin_count > 0) {
      pinned_bytes += resident.entry.bytes;
    }
  }
  if (pinned_bytes + entry.bytes > effective_capacity_bytes()) {
    ++stats_.rejected_insertions;
    return false;
  }
  std::vector<CacheEntry> victims;
  while (used_bytes_ + entry.bytes > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    const bool picked = PickVictim(now, &victim_key);
    FMOE_CHECK(picked);
    const auto it = entries_.find(victim_key);
    victims.push_back(it->second.entry);
    used_bytes_ -= it->second.entry.bytes;
    entries_.erase(it);
  }
  entries_.emplace(entry.key, Resident{entry, ~++insert_count_});
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
    victims.push_back(it->second.entry);
    used_bytes_ -= it->second.entry.bytes;
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
  FMOE_CHECK_MSG(it->second.entry.pin_count == 0, "removing pinned expert " << key);
  if (removed != nullptr) {
    *removed = it->second.entry;
  }
  used_bytes_ -= it->second.entry.bytes;
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
  for (auto& [key, resident] : entries_) {
    resident.entry.frequency *= factor;
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
  struct Scored {
    double score;
    uint64_t rank;
    uint64_t key;
  };
  std::vector<Scored> scored;
  scored.reserve(entries_.size());
  for (const auto& [key, resident] : entries_) {
    if (resident.entry.pin_count > 0) {
      continue;
    }
    scored.push_back({policy_->EvictionScore(resident.entry, now), resident.rank, key});
  }
  // PickVictim's order: higher score first, equal scores newest insert (smaller rank) first.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.rank < b.rank;
  });
  std::vector<uint64_t> keys;
  keys.reserve(scored.size());
  for (const Scored& s : scored) {
    keys.push_back(s.key);
  }
  return keys;
}

std::vector<uint64_t> ReferenceExpertCache::Keys() const {
  std::map<uint64_t, uint64_t> by_rank;
  for (const auto& [key, resident] : entries_) {
    by_rank.emplace(resident.rank, key);
  }
  std::vector<uint64_t> keys;
  keys.reserve(by_rank.size());
  for (const auto& [rank, key] : by_rank) {
    keys.push_back(key);
  }
  return keys;
}

}  // namespace fmoe
