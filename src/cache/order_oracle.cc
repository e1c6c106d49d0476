#include "src/cache/order_oracle.h"

#include "src/util/logging.h"

namespace fmoe {

void IterationOrderOracle::EnsureSlot(uint32_t slot) {
  if (slot >= next_.size()) {
    const size_t n = static_cast<size_t>(slot) + 1;
    next_.resize(n, kNil);
    prev_.resize(n, kNil);
    labels_.resize(n, 0);
    key_of_.resize(n, 0);
  }
}

void IterationOrderOracle::Insert(uint64_t key, uint32_t slot) {
  EnsureSlot(slot);
  key_of_[slot] = key;

  // Predict the new node's successor in iteration order before touching the map: libstdc++
  // places the node at the head of its bucket (before the current bucket head), or at the
  // global head when the bucket is empty.
  const size_t old_bucket_count = map_.bucket_count();
  uint32_t succ = kNil;
  bool at_global_head = map_.empty();
  if (!map_.empty()) {
    const size_t b = map_.bucket(key);
    auto lit = map_.cbegin(b);
    if (lit == map_.cend(b)) {
      at_global_head = true;
      succ = map_.cbegin()->second;
    } else {
      succ = lit->second;
    }
  }

  const auto [it, inserted] = map_.emplace(key, slot);
  FMOE_CHECK_MSG(inserted, "order oracle: duplicate key " << key);

  // Verify the prediction; on a rehash (bucket count changed) or any mismatch, rebuild the
  // mirror from the real map — exact on any implementation.
  bool predicted = map_.bucket_count() == old_bucket_count;
  if (predicted) {
    const size_t b = map_.bucket(key);
    auto lit = map_.cbegin(b);
    predicted = lit != map_.cend(b) && lit->first == key;
    if (predicted && at_global_head) {
      predicted = map_.cbegin()->first == key;
    }
  }
  if (predicted) {
    LinkBefore(slot, succ);
  } else {
    RebuildFromMap();
  }
}

void IterationOrderOracle::Erase(uint64_t key, uint32_t slot) {
  const auto it = map_.find(key);
  FMOE_CHECK_MSG(it != map_.end() && it->second == slot, "order oracle: bad erase " << key);
  map_.erase(it);  // Erase never moves other nodes, so the mirror stays valid.
  Unlink(slot);
}

void IterationOrderOracle::LinkBefore(uint32_t slot, uint32_t succ) {
  if (succ == kNil) {  // Append at the tail (only reachable when the list is empty).
    prev_[slot] = tail_;
    next_[slot] = kNil;
    if (tail_ != kNil) {
      next_[tail_] = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
    labels_[slot] = tail_ == head_ ? kLabelBase : labels_[prev_[slot]] + kLabelGap;
    if (tail_ != head_ && labels_[slot] <= labels_[prev_[slot]]) {
      Relabel();
    }
    return;
  }
  const uint32_t pred = prev_[succ];
  prev_[slot] = pred;
  next_[slot] = succ;
  prev_[succ] = slot;
  if (pred != kNil) {
    next_[pred] = slot;
  } else {
    head_ = slot;
  }
  if (pred == kNil) {  // New global head: extend the label range downward.
    if (labels_[succ] < kLabelGap) {
      Relabel();
    } else {
      labels_[slot] = labels_[succ] - kLabelGap;
    }
    return;
  }
  const uint64_t gap = labels_[succ] - labels_[pred];
  if (gap < 2) {  // Midpoint exhausted: renumber everything.
    Relabel();
  } else {
    labels_[slot] = labels_[pred] + gap / 2;
  }
}

void IterationOrderOracle::Unlink(uint32_t slot) {
  const uint32_t p = prev_[slot];
  const uint32_t n = next_[slot];
  if (p != kNil) {
    next_[p] = n;
  } else {
    head_ = n;
  }
  if (n != kNil) {
    prev_[n] = p;
  } else {
    tail_ = p;
  }
  next_[slot] = kNil;
  prev_[slot] = kNil;
}

void IterationOrderOracle::Relabel() {
  ++stats_.relabels;
  uint64_t label = kLabelBase;
  for (uint32_t s = head_; s != kNil; s = next_[s]) {
    labels_[s] = label;
    label += kLabelGap;
  }
}

void IterationOrderOracle::RebuildFromMap() {
  ++stats_.rebuilds;
  head_ = kNil;
  tail_ = kNil;
  uint64_t label = kLabelBase;
  for (const auto& [key, slot] : map_) {
    prev_[slot] = tail_;
    next_[slot] = kNil;
    if (tail_ != kNil) {
      next_[tail_] = slot;
    } else {
      head_ = slot;
    }
    tail_ = slot;
    labels_[slot] = label;
    label += kLabelGap;
  }
}

void IterationOrderOracle::AppendKeysInOrder(std::vector<uint64_t>* out) const {
  for (uint32_t s = head_; s != kNil; s = next_[s]) {
    out->push_back(key_of_[s]);
  }
}

}  // namespace fmoe
