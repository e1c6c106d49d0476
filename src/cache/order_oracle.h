// Iteration-order oracle for the SoA expert cache.
//
// The seed ExpertCache stored entries in a std::unordered_map and broke exact eviction-score
// ties by whichever entry the map's iteration happened to visit first. That order is an
// artifact of the hash table's internals (bucket-head insertion, rehash history), but the
// golden report JSONs pin it: score ties decide victims constantly, so a faithful index must
// reproduce the map's iteration order bit for bit.
//
// Rather than simulating the standard library's hash table, the oracle keeps a *real*
// std::unordered_map<key, slot> fed the exact same insert/erase sequence the seed cache would
// have issued, and mirrors its iteration order into an explicit doubly-linked list of slots
// with order labels (64-bit keys that compare like list positions). The successor of a newly
// inserted key is predicted in O(1) from the map itself — libstdc++ inserts at the head of
// the key's bucket, or at the global head when the bucket was empty — and every prediction is
// verified after the fact. Any surprise (a rehash, or a library whose insertion point
// differs) falls back to rebuilding the mirror by iterating the real map, which is exact by
// construction on every implementation. Victim selection therefore never scans the map; it
// compares labels.
#ifndef FMOE_SRC_CACHE_ORDER_ORACLE_H_
#define FMOE_SRC_CACHE_ORDER_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fmoe {

class IterationOrderOracle {
 public:
  struct Stats {
    uint64_t rebuilds = 0;  // Mirror rebuilt by iterating the real map (rehash / mispredict).
    uint64_t relabels = 0;  // Labels reassigned after midpoint exhaustion.
  };

  // Key must not be present. `slot` is the caller's dense handle for the key. May relabel
  // other slots (midpoint exhaustion, rehash rebuild), so labels are read live, never cached.
  void Insert(uint64_t key, uint32_t slot);

  // Key must be present and mapped to `slot`.
  void Erase(uint64_t key, uint32_t slot);

  // Label of a resident slot; labels ascend along the map's iteration order.
  uint64_t label(uint32_t slot) const { return labels_[slot]; }
  // Slot-indexed label array, covering every slot ever inserted (free slots hold stale labels).
  const uint64_t* labels() const { return labels_.data(); }

  size_t size() const { return map_.size(); }
  const Stats& stats() const { return stats_; }

  // Appends all resident keys in the map's iteration order.
  void AppendKeysInOrder(std::vector<uint64_t>* out) const;

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint64_t kLabelBase = 1ull << 62;
  static constexpr uint64_t kLabelGap = 1ull << 20;

  void EnsureSlot(uint32_t slot);
  // Links `slot` immediately before `succ` (kNil = append at tail), relabeling the list when
  // there is no room between its neighbours' labels.
  void LinkBefore(uint32_t slot, uint32_t succ);
  void Unlink(uint32_t slot);
  void Relabel();
  void RebuildFromMap();

  std::unordered_map<uint64_t, uint32_t> map_;
  // Slot-indexed mirror of the map's iteration order.
  std::vector<uint32_t> next_;
  std::vector<uint32_t> prev_;
  std::vector<uint64_t> labels_;
  std::vector<uint64_t> key_of_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  Stats stats_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_ORDER_ORACLE_H_
