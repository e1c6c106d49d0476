#include "src/cache/expert_cache.h"

#include <algorithm>

#include "src/obs/control_signals.h"
#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"

namespace fmoe {
namespace {

// splitmix64 finalizer: expert keys are small dense integers, so the open-addressed table
// needs real avalanche to avoid probe clustering.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ExpertCache::ExpertCache(uint64_t capacity_bytes, const EvictionPolicy* policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {
  FMOE_CHECK(policy != nullptr);
  uses_frequency_ = policy->uses_frequency();
  uses_probability_ = policy->uses_probability();
  table_keys_.assign(16, 0);
  table_slots_.assign(16, kNilSlot);
  table_mask_ = 15;
}

// --- Open-addressed key -> slot table. ---

uint32_t ExpertCache::LookupSlot(uint64_t key) const {
  size_t i = MixKey(key) & table_mask_;
  while (table_slots_[i] != kNilSlot) {
    if (table_keys_[i] == key) {
      return table_slots_[i];
    }
    i = (i + 1) & table_mask_;
  }
  return kNilSlot;
}

void ExpertCache::TableInsert(uint64_t key, uint32_t slot) {
  if ((table_used_ + 1) * 10 >= table_keys_.size() * 7) {
    TableGrow();
  }
  size_t i = MixKey(key) & table_mask_;
  while (table_slots_[i] != kNilSlot) {
    i = (i + 1) & table_mask_;
  }
  table_keys_[i] = key;
  table_slots_[i] = slot;
  ++table_used_;
}

void ExpertCache::TableErase(uint64_t key) {
  size_t i = MixKey(key) & table_mask_;
  while (table_slots_[i] == kNilSlot || table_keys_[i] != key) {
    FMOE_CHECK_MSG(table_slots_[i] != kNilSlot, "table erase of absent key " << key);
    i = (i + 1) & table_mask_;
  }
  // Backward-shift deletion keeps probe chains contiguous without tombstones.
  size_t hole = i;
  size_t j = (i + 1) & table_mask_;
  while (table_slots_[j] != kNilSlot) {
    const size_t home = MixKey(table_keys_[j]) & table_mask_;
    // Move j into the hole unless j's probe path starts after the hole.
    const bool reachable = ((j - home) & table_mask_) >= ((j - hole) & table_mask_);
    if (reachable) {
      table_keys_[hole] = table_keys_[j];
      table_slots_[hole] = table_slots_[j];
      hole = j;
    }
    j = (j + 1) & table_mask_;
  }
  table_slots_[hole] = kNilSlot;
  --table_used_;
}

void ExpertCache::TableGrow() {
  const size_t new_size = table_keys_.size() * 2;
  std::vector<uint64_t> old_keys = std::move(table_keys_);
  std::vector<uint32_t> old_slots = std::move(table_slots_);
  table_keys_.assign(new_size, 0);
  table_slots_.assign(new_size, kNilSlot);
  table_mask_ = new_size - 1;
  for (size_t i = 0; i < old_slots.size(); ++i) {
    if (old_slots[i] == kNilSlot) {
      continue;
    }
    size_t j = MixKey(old_keys[i]) & table_mask_;
    while (table_slots_[j] != kNilSlot) {
      j = (j + 1) & table_mask_;
    }
    table_keys_[j] = old_keys[i];
    table_slots_[j] = old_slots[i];
  }
}

// --- Lazy decay. ---

double ExpertCache::MaterializedFrequency(uint32_t slot) const {
  double f = freq_[slot];
  const uint64_t e = epoch_[slot];
  if (f == 0.0 || e == decay_epoch_) {
    return f;  // 0 * factor == 0 exactly, at every step of the fold.
  }
  for (size_t i = static_cast<size_t>(e - base_epoch_); i < epoch_factors_.size(); ++i) {
    f *= epoch_factors_[i];
  }
  return f;
}

void ExpertCache::MaterializeSlot(uint32_t slot) {
  // Storing a materialized value is always safe: the fold applies the logged factors in the
  // order an eager sweep would have, so the stored double is bitwise what the seed
  // implementation would hold.
  freq_[slot] = MaterializedFrequency(slot);
  epoch_[slot] = decay_epoch_;
}

CacheEntry ExpertCache::MaterializedEntry(uint32_t slot) const {
  CacheEntry entry;
  entry.key = key_[slot];
  entry.bytes = bytes_[slot];
  entry.ready_at = ready_at_[slot];
  entry.last_access = last_access_[slot];
  entry.frequency = MaterializedFrequency(slot);
  entry.probability = prob_[slot];
  entry.pin_count = pin_count_[slot];
  entry.prefetch_pending = prefetch_pending_[slot] != 0;
  entry.transfer_tag = transfer_tag_[slot];
  entry.reduced_precision = reduced_precision_[slot] != 0;
  return entry;
}

void ExpertCache::Rebase(double factor) {
  ++index_stats_.rebases;
  for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
    if (occupied_flag_[s]) {
      MaterializeSlot(s);
    }
  }
  epoch_factors_.clear();
  base_epoch_ = decay_epoch_;
  decay_product_ = 1.0;
  inv_decay_ = 1.0;
  sched_factor_ = factor;
  crossings_.clear();
  RebuildHeaps();
  // Heap rebuild deliberately skips crossing scheduling (schedules normally survive a
  // compaction); after a rebase the cleared schedule must be rebuilt for every active entry,
  // pinned ones included — a pin does not pause frequency decay.
  if (uses_frequency_) {
    for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
      if (occupied_flag_[s] && freq_[s] > kEvictionFrequencyFloor) {
        ScheduleCrossing(s);
      }
    }
  }
}

// --- Eviction index. ---

void ExpertCache::ScheduleCrossing(uint32_t slot) {
  // Predict the epoch at which this active entry's frequency decays to the plateau, by
  // replaying the exact fold the future decays will perform. Valid only while every future
  // decay uses sched_factor_; a different factor triggers a rebase that reschedules.
  if (!uses_frequency_ || sched_factor_ <= 0.0 || sched_factor_ >= 1.0) {
    return;
  }
  double f = freq_[slot];  // Materialized by the caller.
  if (f <= kEvictionFrequencyFloor) {
    return;
  }
  uint64_t e = decay_epoch_;
  const uint64_t horizon = base_epoch_ + kRebaseEpochLimit;
  while (f > kEvictionFrequencyFloor && e < horizon) {
    f *= sched_factor_;
    ++e;
  }
  if (f <= kEvictionFrequencyFloor) {
    crossings_[e].emplace_back(slot, freq_gen_[slot]);
  }
  // Else: the entry stays active past the rebase horizon; the rebase reschedules it.
}

void ExpertCache::PushHeapNode(uint32_t slot) {
  MaterializeSlot(slot);
  const CacheEntry view = MaterializedEntry(slot);
  const EvictionIndexKey key = policy_->IndexKey(view, inv_decay_);
  std::vector<HeapNode>& heap = key.frozen ? frozen_heap_ : active_heap_;
  heap.push_back(HeapNode{key.primary, oracle_.label(slot), slot, gen_[slot]});
  std::push_heap(heap.begin(), heap.end(), NodeAfter{});
  ++index_stats_.heap_pushes;
  if (heap_nodes() > 2 * occupied_ + 16) {
    RebuildHeaps();  // Compaction: drop accumulated stale nodes.
  }
}

void ExpertCache::RebuildHeaps() {
  ++index_stats_.heap_rebuilds;
  frozen_heap_.clear();
  active_heap_.clear();
  for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
    if (!occupied_flag_[s] || pin_count_[s] > 0) {
      continue;
    }
    MaterializeSlot(s);
    const EvictionIndexKey key = policy_->IndexKey(MaterializedEntry(s), inv_decay_);
    std::vector<HeapNode>& heap = key.frozen ? frozen_heap_ : active_heap_;
    heap.push_back(HeapNode{key.primary, oracle_.label(s), s, gen_[s]});
  }
  std::make_heap(frozen_heap_.begin(), frozen_heap_.end(), NodeAfter{});
  std::make_heap(active_heap_.begin(), active_heap_.end(), NodeAfter{});
}

double ExpertCache::ExactScore(uint32_t slot, double now) {
  MaterializeSlot(slot);
  return policy_->EvictionScore(MaterializedEntry(slot), now);
}

bool ExpertCache::BestCandidate(std::vector<HeapNode>& heap, double now, Candidate* out) {
  // A node is live while its generation is current (pinned slots have none).
  const auto live = [&](const HeapNode& n) { return n.gen == gen_[n.slot]; };
  // Pop stale nodes until a live top emerges.
  const auto clean_top = [&] {
    while (!heap.empty() && !live(heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), NodeAfter{});
      heap.pop_back();
      ++index_stats_.heap_pops;
    }
  };
  clean_top();
  if (heap.empty()) {
    return false;
  }
  const HeapNode& top = heap.front();
  const double top_score = ExactScore(top.slot, now);
  // Peek first. After the top, the walk below visits the smaller root child next whenever
  // that child is live: heap order puts every other node at or after it. If the child shares
  // the top's primary or scores strictly lower (or there is no child), the walk would stop
  // right there and return the top, so return it without popping or pushing anything.
  bool settled = heap.size() == 1;
  if (!settled) {
    const HeapNode& next = heap.size() > 2 && NodeAfter{}(heap[1], heap[2]) ? heap[2] : heap[1];
    settled = live(next) &&
              (next.primary == top.primary || ExactScore(next.slot, now) < top_score);
  }
  if (settled) {
    *out = Candidate{top.slot, top.label, top_score};
    return true;
  }
  pick_scratch_.clear();
  std::pop_heap(heap.begin(), heap.end(), NodeAfter{});
  HeapNode node = heap.back();
  heap.pop_back();
  ++index_stats_.heap_pops;
  pick_scratch_.push_back(node);
  Candidate best{node.slot, node.label, top_score};
  double level_primary = node.primary;
  // A lower (primary, label) means a better victim, so the top is the winner — except when
  // floating-point rounding lands entries at *different* primaries but *equal* (or even
  // inverted) exact scores, where the seed scan's tie-break is the iteration-order label
  // across all of them. Walk further primary levels while their exact score still competes.
  // Nodes sharing the current primary cannot win (same score function of the primary for
  // frozen keys, larger label), so a repeated primary terminates the walk, which keeps this
  // O(log n) even when the whole heap sits on one plateau primary.
  while (true) {
    clean_top();
    if (heap.empty() || heap.front().primary == level_primary) {
      break;
    }
    const double score = ExactScore(heap.front().slot, now);
    if (score > best.score) {
      // Rounding inverted primary order vs exact scores; the eager scan maximizes the exact
      // score, so the deeper node wins outright.
      best = Candidate{heap.front().slot, heap.front().label, score};
    } else if (score == best.score) {
      if (heap.front().label < best.label) {
        best = Candidate{heap.front().slot, heap.front().label, score};
      }
    } else {
      break;  // Strictly worse level; deeper ones are worse still.
    }
    std::pop_heap(heap.begin(), heap.end(), NodeAfter{});
    node = heap.back();
    heap.pop_back();
    ++index_stats_.heap_pops;
    pick_scratch_.push_back(node);
    level_primary = node.primary;
  }
  // Everything popped stays live (a chosen victim's nodes die via its generation bump).
  for (const HeapNode& n : pick_scratch_) {
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), NodeAfter{});
  }
  *out = best;
  return true;
}

bool ExpertCache::PickVictim(double now, uint64_t* victim) {
  ++index_stats_.victim_picks;
  Candidate frozen;
  Candidate active;
  const bool have_frozen = BestCandidate(frozen_heap_, now, &frozen);
  const bool have_active = BestCandidate(active_heap_, now, &active);
  if (!have_frozen && !have_active) {
    return false;
  }
  const Candidate* pick = nullptr;
  if (!have_active) {
    pick = &frozen;
  } else if (!have_frozen) {
    pick = &active;
  } else if (frozen.score != active.score) {
    pick = frozen.score > active.score ? &frozen : &active;
  } else {
    // Equal exact scores across the heaps: the seed scan keeps the first entry in hash-map
    // iteration order, i.e. the smaller label.
    pick = frozen.label < active.label ? &frozen : &active;
  }
  *victim = key_[pick->slot];
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
  epoch_.push_back(0);
  pin_count_.push_back(0);
  transfer_tag_.push_back(0);
  occupied_flag_.push_back(0);
  prefetch_pending_.push_back(0);
  reduced_precision_.push_back(0);
  gen_.push_back(0);
  freq_gen_.push_back(0);
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
  epoch_[slot] = decay_epoch_;
  pin_count_[slot] = entry.pin_count;
  transfer_tag_[slot] = entry.transfer_tag;
  occupied_flag_[slot] = 1;
  prefetch_pending_[slot] = entry.prefetch_pending ? 1 : 0;
  reduced_precision_[slot] = entry.reduced_precision ? 1 : 0;
  ++gen_[slot];
  ++freq_gen_[slot];
  TableInsert(entry.key, slot);
  const IterationOrderOracle::InsertResult order = oracle_.Insert(entry.key, slot);
  used_bytes_ += entry.bytes;
  ++occupied_;
  if (order.labels_invalidated) {
    RebuildHeaps();  // Covers the fresh slot too.
  } else if (pin_count_[slot] == 0) {
    PushHeapNode(slot);
  }
  if (uses_frequency_ && freq_[slot] > kEvictionFrequencyFloor) {
    ScheduleCrossing(slot);
  }
}

CacheEntry ExpertCache::RemoveResident(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK(slot != kNilSlot);
  MaterializeSlot(slot);
  const CacheEntry out = MaterializedEntry(slot);
  TableErase(key);
  oracle_.Erase(key, slot);
  used_bytes_ -= bytes_[slot];
  --occupied_;
  occupied_flag_[slot] = 0;
  ++gen_[slot];       // Invalidate heap nodes.
  ++freq_gen_[slot];  // Invalidate crossing schedule entries (slot recycles).
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
  if (LookupSlot(entry.key) != kNilSlot) {
    return false;
  }
  if (entry.bytes > effective_capacity_bytes()) {
    ++stats_.rejected_insertions;
    return false;
  }
  // Tentatively evict until the entry fits; roll back if we run out of victims. The oracle
  // map replays the erase/emplace sequence of the seed implementation exactly, so iteration
  // order — and with it every future tie-break — evolves identically.
  victims_scratch_.clear();
  while (used_bytes_ + entry.bytes > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    if (!PickVictim(now, &victim_key)) {
      for (const CacheEntry& v : victims_scratch_) {  // Roll back: victims go home.
        InsertResident(v);
      }
      ++stats_.rejected_insertions;
      return false;
    }
    victims_scratch_.push_back(RemoveResident(victim_key));
  }
  InsertResident(entry);
  ++stats_.insertions;
  stats_.evictions += victims_scratch_.size();
  if (evicted != nullptr) {
    evicted->assign(victims_scratch_.begin(), victims_scratch_.end());
  }
  if (stall_observer_) {
    for (const CacheEntry& victim : victims_scratch_) {
      stall_observer_->OnEvicted(victim.key);
    }
  }
  if (trace_) {
    for (const CacheEntry& victim : victims_scratch_) {
      trace_->OnEvicted(victim.key);
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
  if (stall_observer_) {
    for (const CacheEntry& victim : victims_scratch_) {
      stall_observer_->OnEvicted(victim.key);
    }
  }
  if (trace_) {
    for (const CacheEntry& victim : victims_scratch_) {
      trace_->OnEvicted(victim.key);
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
  if (stall_observer_) {
    stall_observer_->OnEvicted(key);
  }
  if (trace_) {
    // Policy-driven removal loses a prefetched copy the same way an eviction does.
    trace_->OnEvicted(key);
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
  MaterializeSlot(slot);
  freq_[slot] += 1.0;
  last_access_[slot] = now;
  ++gen_[slot];
  ++freq_gen_[slot];  // The frequency trajectory changed: any scheduled crossing is stale.
  if (pin_count_[slot] == 0) {
    PushHeapNode(slot);
  }
  if (uses_frequency_) {
    ScheduleCrossing(slot);  // freq >= 1 after a touch, so the entry is active again.
  }
}

void ExpertCache::DecayFrequencies(double factor) {
  FMOE_CHECK(factor > 0.0 && factor <= 1.0);
  ++index_stats_.decay_calls;
  const bool factor_changed = uses_frequency_ && factor != sched_factor_;
  if (factor_changed || decay_epoch_ - base_epoch_ >= kRebaseEpochLimit ||
      decay_product_ < kRebaseProductFloor) {
    Rebase(factor);
  }
  ++decay_epoch_;
  epoch_factors_.push_back(factor);
  decay_product_ *= factor;
  inv_decay_ = 1.0 / decay_product_;
  // Fire due floor crossings: the scheduled entries' frequencies just decayed onto the
  // plateau, so their index keys migrate from the active heap to the frozen one.
  while (!crossings_.empty() && crossings_.begin()->first <= decay_epoch_) {
    const std::vector<std::pair<uint32_t, uint32_t>> due = std::move(crossings_.begin()->second);
    crossings_.erase(crossings_.begin());
    for (const auto& [slot, fgen] : due) {
      if (!occupied_flag_[slot] || freq_gen_[slot] != fgen) {
        continue;  // Touched, evicted, or recycled since scheduling.
      }
      ++index_stats_.crossing_fires;
      MaterializeSlot(slot);
      FMOE_CHECK(freq_[slot] <= kEvictionFrequencyFloor);
      ++gen_[slot];
      if (pin_count_[slot] == 0) {
        PushHeapNode(slot);
      }
      // Pinned entries get their (frozen) node pushed on the unpin instead.
    }
  }
}

void ExpertCache::SetProbability(uint64_t key, double probability) {
  const uint32_t slot = LookupSlot(key);
  if (slot == kNilSlot) {
    return;
  }
  prob_[slot] = probability;
  if (uses_probability_) {
    ++gen_[slot];
    if (pin_count_[slot] == 0) {
      PushHeapNode(slot);
    }
    // The frequency trajectory is untouched: crossing schedules stay valid.
  }
}

void ExpertCache::Pin(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK_MSG(slot != kNilSlot, "pinning absent expert " << key);
  if (pin_count_[slot]++ == 0) {
    ++gen_[slot];  // Pinned entries are not eviction candidates; drop their heap nodes.
  }
}

void ExpertCache::Unpin(uint64_t key) {
  const uint32_t slot = LookupSlot(key);
  FMOE_CHECK_MSG(slot != kNilSlot, "unpinning absent expert " << key);
  FMOE_CHECK(pin_count_[slot] > 0);
  if (--pin_count_[slot] == 0) {
    ++gen_[slot];
    PushHeapNode(slot);  // Re-index at the entry's current (possibly now-frozen) state.
  }
}

std::vector<uint64_t> ExpertCache::EvictionOrder(double now) const {
  std::vector<std::pair<double, uint64_t>> scored;
  scored.reserve(occupied_);
  for (uint32_t s = 0; s < occupied_flag_.size(); ++s) {
    if (!occupied_flag_[s] || pin_count_[s] > 0) {
      continue;
    }
    scored.emplace_back(policy_->EvictionScore(MaterializedEntry(s), now), key_[s]);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;
  });
  std::vector<uint64_t> keys;
  keys.reserve(scored.size());
  for (const auto& [score, key] : scored) {
    keys.push_back(key);
  }
  return keys;
}

std::vector<uint64_t> ExpertCache::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(occupied_);
  oracle_.AppendKeysInOrder(&keys);
  return keys;
}

}  // namespace fmoe
