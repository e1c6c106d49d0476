#include "src/cache/expert_cache.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"
#include "src/util/math.h"

namespace fmoe {
namespace {

// Score-column sentinel of free and pinned slots: NaN compares false, so no scan picks it.
constexpr double kNoScore = std::numeric_limits<double>::quiet_NaN();

}  // namespace

ExpertCache::ExpertCache(uint64_t capacity_bytes, EvictionRule rule)
    : capacity_bytes_(capacity_bytes), rule_(rule) {}

// --- Eviction. ---

CacheEntry ExpertCache::EntryAt(uint32_t slot) const {
  CacheEntry entry;
  entry.key = key_[slot];
  entry.bytes = bytes_[slot];
  entry.ready_at = ready_at_[slot];
  entry.last_access = last_access_[slot];
  entry.frequency = freq_[slot];
  entry.probability = prob_[slot];
  entry.pin_count = pin_count_[slot];
  entry.prefetch_pending = prefetch_pending_[slot] != 0;
  entry.transfer_tag = transfer_tag_[slot];
  entry.reduced_precision = reduced_precision_[slot] != 0;
  return entry;
}

void ExpertCache::RefreshScore(uint32_t slot) {
  if (pin_count_[slot] > 0) {
    score_[slot] = kNoScore;
  } else if (rule_ == EvictionRule::kLru) {
    score_[slot] = last_access_[slot];
  } else {
    score_[slot] = EvictionScore(rule_, last_access_[slot], freq_[slot], prob_[slot],
                                 /*now=*/0.0);  // Only LRU reads now.
  }
}

bool ExpertCache::PickVictim(double now, uint64_t* victim) {
  ++index_stats_.victim_picks;
  // Free and pinned slots hold NaN and never win, so their stale ranks are never read.
  const size_t slot = ArgMaxScore(score_.data(), rank_.data(), score_.size(), now,
                                  /*age_mode=*/rule_ == EvictionRule::kLru);
  if (slot == score_.size()) {
    return false;
  }
  *victim = key_[slot];
  return true;
}

// --- Residency. ---

uint32_t ExpertCache::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const uint32_t slot = static_cast<uint32_t>(key_.size());
  key_.push_back(0);
  bytes_.push_back(0);
  ready_at_.push_back(0.0);
  last_access_.push_back(0.0);
  freq_.push_back(0.0);
  prob_.push_back(0.0);
  pin_count_.push_back(0);
  transfer_tag_.push_back(0);
  occupied_flag_.push_back(0);
  prefetch_pending_.push_back(0);
  reduced_precision_.push_back(0);
  score_.push_back(kNoScore);
  rank_.push_back(0);
  return slot;
}

void ExpertCache::InsertResident(const CacheEntry& entry) {
  const uint32_t slot = AllocSlot();
  key_[slot] = entry.key;
  bytes_[slot] = entry.bytes;
  ready_at_[slot] = entry.ready_at;
  last_access_[slot] = entry.last_access;
  freq_[slot] = entry.frequency;
  prob_[slot] = entry.probability;
  pin_count_[slot] = entry.pin_count;
  transfer_tag_[slot] = entry.transfer_tag;
  occupied_flag_[slot] = 1;
  prefetch_pending_[slot] = entry.prefetch_pending ? 1 : 0;
  reduced_precision_[slot] = entry.reduced_precision ? 1 : 0;
  if (entry.pin_count > 0) {
    pinned_bytes_ += entry.bytes;
  }
  rank_[slot] = ~++insert_count_;
  RefreshScore(slot);
  if (entry.key >= slot_of_key_.size()) {
    slot_of_key_.resize(entry.key + 1, kNilSlot);
  }
  slot_of_key_[entry.key] = slot;
  used_bytes_ += entry.bytes;
  ++occupied_;
}

CacheEntry ExpertCache::RemoveResident(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK(slot != kNilSlot);
  const CacheEntry out = EntryAt(slot);
  if (out.pin_count > 0) {
    pinned_bytes_ -= out.bytes;
  }
  slot_of_key_[key] = kNilSlot;
  used_bytes_ -= bytes_[slot];
  --occupied_;
  occupied_flag_[slot] = 0;
  score_[slot] = kNoScore;
  free_slots_.push_back(slot);
  return out;
}

// --- Public interface. ---

EntryRef ExpertCache::Find(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  return slot == kNilSlot ? EntryRef() : EntryRef(this, slot);
}

ConstEntryRef ExpertCache::Find(uint64_t key) const {
  const uint32_t slot = LookupSlot(key);
  return slot == kNilSlot ? ConstEntryRef() : ConstEntryRef(this, slot);
}

bool ExpertCache::Insert(const CacheEntry& entry, double now, std::vector<CacheEntry>* evicted) {
  FMOE_CHECK_MSG(entry.key >> 32 == 0, "expert key " << entry.key << " is not a flat index");
  if (LookupSlot(entry.key) != kNilSlot) {
    return false;
  }
  // Evicting every unpinned entry is the most room an insert can make, so an entry that does
  // not fit beside the pinned bytes is rejected before anything is evicted.
  if (pinned_bytes_ + entry.bytes > effective_capacity_bytes()) {
    ++stats_.rejected_insertions;
    return false;
  }
  victims_scratch_.clear();
  while (used_bytes_ + entry.bytes > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    const bool picked = PickVictim(now, &victim_key);
    FMOE_CHECK(picked);  // Unpinned bytes remain while the entry does not fit.
    victims_scratch_.push_back(RemoveResident(victim_key));
  }
  InsertResident(entry);
  ++stats_.insertions;
  stats_.evictions += victims_scratch_.size();
  if (evicted != nullptr) {
    evicted->assign(victims_scratch_.begin(), victims_scratch_.end());
  }
  if (trace_) {
    for (const CacheEntry& victim : victims_scratch_) {
      trace_->Instant(trace_track_, "evict", "cache", now,
                      {TraceArg::Uint("key", victim.key), TraceArg::Uint("bytes", victim.bytes),
                       TraceArg::Uint("for_key", entry.key)});
    }
    trace_->Instant(trace_track_, "insert", "cache", now,
                    {TraceArg::Uint("key", entry.key), TraceArg::Uint("bytes", entry.bytes),
                     TraceArg::Int("prefetch", entry.prefetch_pending ? 1 : 0)});
    trace_->Counter(trace_track_, "cache.used_bytes", now, static_cast<double>(used_bytes_));
    trace_->Counter(trace_track_, "cache.entries", now, static_cast<double>(occupied_));
  }
  return true;
}

bool ExpertCache::SetReservation(uint64_t bytes, double now, std::vector<CacheEntry>* evicted) {
  reserved_bytes_ = bytes;
  victims_scratch_.clear();
  while (used_bytes_ > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    if (!PickVictim(now, &victim_key)) {
      break;  // Only pinned entries left; best effort until pins release.
    }
    victims_scratch_.push_back(RemoveResident(victim_key));
  }
  stats_.evictions += victims_scratch_.size();
  if (evicted != nullptr) {
    evicted->assign(victims_scratch_.begin(), victims_scratch_.end());
  }
  if (trace_) {
    for (const CacheEntry& victim : victims_scratch_) {
      trace_->Instant(trace_track_, "evict", "cache", now,
                      {TraceArg::Uint("key", victim.key), TraceArg::Uint("bytes", victim.bytes),
                       TraceArg::Uint("reserved", bytes)});
    }
    if (!victims_scratch_.empty()) {
      trace_->Counter(trace_track_, "cache.used_bytes", now, static_cast<double>(used_bytes_));
      trace_->Counter(trace_track_, "cache.entries", now, static_cast<double>(occupied_));
    }
  }
  return used_bytes_ <= effective_capacity_bytes();
}

bool ExpertCache::Remove(uint64_t key, CacheEntry* removed) {
  const uint32_t slot = LookupSlot(key);
  if (slot == kNilSlot) {
    return false;
  }
  FMOE_CHECK_MSG(pin_count_[slot] == 0, "removing pinned expert " << key);
  const CacheEntry out = RemoveResident(key);
  if (removed != nullptr) {
    *removed = out;
  }
  if (trace_) {
    const double now = trace_->now();
    trace_->Instant(trace_track_, "remove", "cache", now,
                    {TraceArg::Uint("key", key), TraceArg::Uint("bytes", out.bytes)});
    trace_->Counter(trace_track_, "cache.used_bytes", now, static_cast<double>(used_bytes_));
    trace_->Counter(trace_track_, "cache.entries", now, static_cast<double>(occupied_));
  }
  return true;
}

void ExpertCache::Touch(uint64_t key, double now) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK_MSG(slot != kNilSlot, "touching absent expert " << key);
  freq_[slot] += 1.0;
  last_access_[slot] = now;
  RefreshScore(slot);
}

void ExpertCache::DecayFrequencies(double factor) {
  FMOE_CHECK(factor > 0.0 && factor <= 1.0);
  // Free slots decay too; their fields are overwritten on reuse.
  for (double& freq : freq_) {
    freq *= factor;
  }
  if (rule_ != EvictionRule::kLru) {  // LRU's column holds last_access, which decay leaves.
    for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
      if (occupied_flag_[s]) {
        RefreshScore(s);
      }
    }
  }
}

void ExpertCache::SetProbability(uint64_t key, double probability) {
  const uint32_t slot = LookupSlot(key);
  if (slot == kNilSlot) {
    return;
  }
  prob_[slot] = probability;
  RefreshScore(slot);
}

void ExpertCache::Pin(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK_MSG(slot != kNilSlot, "pinning absent expert " << key);
  if (pin_count_[slot]++ == 0) {
    pinned_bytes_ += bytes_[slot];
  }
  score_[slot] = kNoScore;  // Pinned entries are not eviction candidates.
}

void ExpertCache::Unpin(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK_MSG(slot != kNilSlot, "unpinning absent expert " << key);
  FMOE_CHECK(pin_count_[slot] > 0);
  if (--pin_count_[slot] == 0) {
    pinned_bytes_ -= bytes_[slot];
  }
  RefreshScore(slot);
}

std::vector<uint64_t> ExpertCache::EvictionOrder(double now) const {
  struct Ranked {
    double score;
    uint64_t rank;
    uint64_t key;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(occupied_);
  for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
    if (!occupied_flag_[s] || pin_count_[s] > 0) {
      continue;
    }
    ranked.push_back(
        {EvictionScore(rule_, last_access_[s], freq_[s], prob_[s], now), rank_[s], key_[s]});
  }
  // The victim scan's order: higher score first, equal scores newest insert (smaller rank)
  // first.
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.rank < b.rank;
  });
  std::vector<uint64_t> keys;
  keys.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    keys.push_back(r.key);
  }
  return keys;
}

std::vector<uint64_t> ExpertCache::Keys() const {
  std::vector<std::pair<uint64_t, uint64_t>> ranked;  // (rank, key)
  ranked.reserve(occupied_);
  for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
    if (occupied_flag_[s]) {
      ranked.emplace_back(rank_[s], key_[s]);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<uint64_t> keys;
  keys.reserve(ranked.size());
  for (const auto& [rank, key] : ranked) {
    keys.push_back(key);
  }
  return keys;
}

}  // namespace fmoe
