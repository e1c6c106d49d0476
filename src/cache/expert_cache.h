// Byte-budget expert cache (the GPU-resident working set of expert weights).
//
// The cache is purely mechanical: it tracks which experts are resident, how many bytes they
// occupy, and who to evict when a new expert must fit. All *policy* (what to prefetch, which
// probabilities to stamp on entries) lives in the offloading policies; all *timing* (when a
// transfer completes) lives in the memsim link — the cache stores the resulting ready_at.
//
// Storage is slot-based structure-of-arrays: every per-entry field lives in its own parallel
// array indexed by a dense slot handle, slots recycle through a free list, and an
// open-addressed hash table maps keys to slots. Victim selection is one O(n) SIMD argmax
// (ArgMaxScore, src/util/math.h) over a per-slot score column kept exact on every mutation;
// equal scores go to the newest insert, read from a per-slot insertion rank. Frequency decay
// is an eager sweep. See DESIGN.md §5d. The semantics, including tie-breaking under equal
// eviction scores and the exact floating-point trajectory of decayed frequencies, are
// bit-identical to the naive linear-scan implementation in reference_cache.h.
#ifndef FMOE_SRC_CACHE_EXPERT_CACHE_H_
#define FMOE_SRC_CACHE_EXPERT_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/cache/eviction_policy.h"

namespace fmoe {

class TraceRecorder;

struct CacheStats {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected_insertions = 0;  // Did not fit even after evicting all unpinned entries.
};

// Victim-pick instrumentation, read by bench_cache and perfbench.
struct CacheIndexStats {
  // The three heap counters stay so existing readers (perfbench's cache.heap_* metrics) keep
  // working. They always read 0: victims come from a scan of the score column, and no heap
  // exists.
  uint64_t heap_pushes = 0;
  uint64_t heap_pops = 0;
  uint64_t heap_rebuilds = 0;
  uint64_t victim_picks = 0;
};

// Kept so existing readers (perfbench's cache.order_oracle_rebuilds) keep working. It always
// reads 0: the tie order is the slots' insertion rank, and nothing is ever rebuilt.
struct CacheOrderStats {
  uint64_t rebuilds = 0;
};

class ExpertCache;

// Accessor handle for one resident entry (the SoA layout has no per-entry struct to point
// at). Invalidated by Insert/Remove, like the old CacheEntry pointer. Setters route
// score-relevant writes (probability) through the score column; transfer bookkeeping
// writes leave it alone.
class EntryRef {
 public:
  EntryRef() = default;
  explicit operator bool() const { return cache_ != nullptr; }

  uint64_t key() const;
  uint64_t bytes() const;
  double ready_at() const;
  double last_access() const;
  double frequency() const;
  double probability() const;
  int pin_count() const;
  bool prefetch_pending() const;
  uint64_t transfer_tag() const;
  bool reduced_precision() const;

  void set_ready_at(double t);
  void set_prefetch_pending(bool pending);
  void set_transfer_tag(uint64_t tag);
  void set_probability(double probability);

 private:
  friend class ExpertCache;
  EntryRef(ExpertCache* cache, uint32_t slot) : cache_(cache), slot_(slot) {}
  ExpertCache* cache_ = nullptr;
  uint32_t slot_ = 0;
};

// Read-only variant of EntryRef for const cache access.
class ConstEntryRef {
 public:
  ConstEntryRef() = default;
  explicit operator bool() const { return cache_ != nullptr; }

  uint64_t key() const;
  uint64_t bytes() const;
  double ready_at() const;
  double last_access() const;
  double frequency() const;
  double probability() const;
  int pin_count() const;
  bool prefetch_pending() const;
  uint64_t transfer_tag() const;
  bool reduced_precision() const;

 private:
  friend class ExpertCache;
  ConstEntryRef(const ExpertCache* cache, uint32_t slot) : cache_(cache), slot_(slot) {}
  const ExpertCache* cache_ = nullptr;
  uint32_t slot_ = 0;
};

class ExpertCache {
 public:
  ExpertCache(uint64_t capacity_bytes, const EvictionPolicy* policy);

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  // Bytes actually available to expert entries: capacity minus the external reservation
  // (KV-cache pressure). Saturates at zero. With no reservation this is capacity_bytes().
  uint64_t effective_capacity_bytes() const {
    return capacity_bytes_ > reserved_bytes_ ? capacity_bytes_ - reserved_bytes_ : 0;
  }
  size_t size() const { return occupied_; }
  const CacheStats& stats() const { return stats_; }
  const CacheIndexStats& index_stats() const { return index_stats_; }
  CacheOrderStats order_stats() const { return {}; }

  // Attaches a trace recorder (pure observer: never influences eviction decisions).
  // Insert/evict/remove decisions become instants on `track` plus occupancy counters.
  void set_trace(TraceRecorder* trace, int track) {
    trace_ = trace;
    trace_track_ = track;
  }

  bool Contains(uint64_t key) const { return LookupSlot(key) != kNilSlot; }
  // Invalid (false) ref when absent. Invalidated by Insert/Remove.
  EntryRef Find(uint64_t key);
  ConstEntryRef Find(uint64_t key) const;

  // Inserts an entry (evicting by policy as needed). On success the new entry is resident and
  // `evicted` (if non-null) receives the victims, which the caller must clean up (free GPU
  // memory, cancel queued transfers). Returns false when the entry cannot fit even after
  // evicting every unpinned entry, or when the key is already resident; a rejected insert
  // evicts nothing and changes no state except stats().rejected_insertions.
  bool Insert(const CacheEntry& entry, double now, std::vector<CacheEntry>* evicted);

  // Removes an entry outright (e.g. policy-driven offload). Returns the removed entry.
  bool Remove(uint64_t key, CacheEntry* removed);

  // Reserves `bytes` of the byte budget for an external consumer (the growing KV cache),
  // shrinking the capacity Insert may fill. Entries are evicted by policy until the resident
  // set fits the new effective capacity; victims land in `evicted` (if non-null) for the
  // caller to clean up. Returns false when pinned entries keep used_bytes above the effective
  // capacity (the reservation is then best-effort until pins release).
  bool SetReservation(uint64_t bytes, double now, std::vector<CacheEntry>* evicted);

  // Records a cache hit: bumps frequency and last-access time.
  void Touch(uint64_t key, double now);

  // Stamps the activation probability from a freshly matched expert map (fMoE eviction input).
  void SetProbability(uint64_t key, double probability);

  void Pin(uint64_t key);
  void Unpin(uint64_t key);

  // Ages all hit frequencies by `factor` in (0, 1]: freq *= factor. Without aging, LFU-style
  // policies entrench the first working set forever; the engine decays once per iteration.
  // O(n): one sweep over the slots, then a score refresh when the policy reads frequency.
  void DecayFrequencies(double factor);

  // Keys ordered by descending eviction score (most evictable first, equal scores newest
  // insert first), so front() is the next victim; for tests/inspection.
  std::vector<uint64_t> EvictionOrder(double now) const;

  // All resident keys, newest insert first: the order equal eviction scores break in.
  std::vector<uint64_t> Keys() const;

 private:
  friend class EntryRef;
  friend class ConstEntryRef;

  static constexpr uint32_t kNilSlot = 0xffffffffu;

  // --- Key -> slot open-addressed table (linear probing, backward-shift deletion). ---
  uint32_t LookupSlot(uint64_t key) const;
  void TableInsert(uint64_t key, uint32_t slot);
  void TableErase(uint64_t key);
  void TableGrow();

  // --- Eviction. ---
  CacheEntry EntryAt(uint32_t slot) const;
  // Recomputes the slot's score column entry from its fields (the sentinel while pinned).
  void RefreshScore(uint32_t slot);
  bool PickVictim(double now, uint64_t* victim);

  // --- Residency. ---
  uint32_t AllocSlot();
  void InsertResident(const CacheEntry& entry);
  CacheEntry RemoveResident(uint64_t key);

  uint64_t capacity_bytes_;
  uint64_t reserved_bytes_ = 0;
  const EvictionPolicy* policy_;  // Not owned.
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int trace_track_ = 0;
  bool age_scores_ = false;
  bool uses_frequency_ = false;
  bool uses_probability_ = false;
  uint64_t used_bytes_ = 0;
  uint64_t pinned_bytes_ = 0;  // Bytes of entries with pin_count > 0.
  size_t occupied_ = 0;
  uint64_t insert_count_ = 0;
  CacheStats stats_;
  CacheIndexStats index_stats_;

  // Parallel per-slot field arrays.
  std::vector<uint64_t> key_;
  std::vector<uint64_t> bytes_;
  std::vector<double> ready_at_;
  std::vector<double> last_access_;
  std::vector<double> freq_;
  std::vector<double> prob_;
  std::vector<int> pin_count_;
  std::vector<uint64_t> transfer_tag_;
  std::vector<uint8_t> occupied_flag_;
  std::vector<uint8_t> prefetch_pending_;
  std::vector<uint8_t> reduced_precision_;
  // Score column, the victim scan's input: the eviction score, or last_access when the
  // policy's score is an age; NaN (never picked) for free and pinned slots.
  std::vector<double> score_;
  // Tie rank, ~insert_count stamped at insert: equal scores go to the smaller rank, the
  // newest insert.
  std::vector<uint64_t> rank_;
  std::vector<uint32_t> free_slots_;

  // Open-addressed key -> slot table (power-of-two capacity).
  std::vector<uint64_t> table_keys_;
  std::vector<uint32_t> table_slots_;
  size_t table_mask_ = 0;
  size_t table_used_ = 0;

  std::vector<CacheEntry> victims_scratch_;
};

// --- EntryRef / ConstEntryRef inline accessors (need the ExpertCache definition). ---

inline uint64_t EntryRef::key() const { return cache_->key_[slot_]; }
inline uint64_t EntryRef::bytes() const { return cache_->bytes_[slot_]; }
inline double EntryRef::ready_at() const { return cache_->ready_at_[slot_]; }
inline double EntryRef::last_access() const { return cache_->last_access_[slot_]; }
inline double EntryRef::frequency() const { return cache_->freq_[slot_]; }
inline double EntryRef::probability() const { return cache_->prob_[slot_]; }
inline int EntryRef::pin_count() const { return cache_->pin_count_[slot_]; }
inline bool EntryRef::prefetch_pending() const {
  return cache_->prefetch_pending_[slot_] != 0;
}
inline uint64_t EntryRef::transfer_tag() const { return cache_->transfer_tag_[slot_]; }
inline bool EntryRef::reduced_precision() const {
  return cache_->reduced_precision_[slot_] != 0;
}
inline void EntryRef::set_ready_at(double t) { cache_->ready_at_[slot_] = t; }
inline void EntryRef::set_prefetch_pending(bool pending) {
  cache_->prefetch_pending_[slot_] = pending ? 1 : 0;
}
inline void EntryRef::set_transfer_tag(uint64_t tag) { cache_->transfer_tag_[slot_] = tag; }
inline void EntryRef::set_probability(double probability) {
  cache_->SetProbability(cache_->key_[slot_], probability);
}

inline uint64_t ConstEntryRef::key() const { return cache_->key_[slot_]; }
inline uint64_t ConstEntryRef::bytes() const { return cache_->bytes_[slot_]; }
inline double ConstEntryRef::ready_at() const { return cache_->ready_at_[slot_]; }
inline double ConstEntryRef::last_access() const { return cache_->last_access_[slot_]; }
inline double ConstEntryRef::frequency() const { return cache_->freq_[slot_]; }
inline double ConstEntryRef::probability() const { return cache_->prob_[slot_]; }
inline int ConstEntryRef::pin_count() const { return cache_->pin_count_[slot_]; }
inline bool ConstEntryRef::prefetch_pending() const {
  return cache_->prefetch_pending_[slot_] != 0;
}
inline uint64_t ConstEntryRef::transfer_tag() const { return cache_->transfer_tag_[slot_]; }
inline bool ConstEntryRef::reduced_precision() const {
  return cache_->reduced_precision_[slot_] != 0;
}

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_EXPERT_CACHE_H_
