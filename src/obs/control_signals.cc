#include "src/obs/control_signals.h"

#include "src/util/logging.h"

namespace fmoe {

const char* StallClassName(StallClass cls) {
  switch (cls) {
    case StallClass::kNeverPrefetched:
      return "never-prefetched";
    case StallClass::kPrefetchInFlight:
      return "prefetch-in-flight";
    case StallClass::kEvictedBeforeUse:
      return "evicted-before-use";
    default:
      return "unknown";
  }
}

const char* StallTierName(StallTier tier) {
  switch (tier) {
    case StallTier::kHost:
      return "served-from-host";
    case StallTier::kNvme:
      return "served-from-nvme";
    default:
      return "unknown";
  }
}

double StallAttribution::CategorySum() const {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum;
}

double StallAttribution::TierSum() const {
  double sum = 0.0;
  for (double s : tier_seconds) sum += s;
  return sum;
}

void StallStateMachine::OnPrefetchIssued(uint64_t key) {
  if (key >= key_state_.size()) {
    key_state_.resize(key + 1, kNoIntent);
  }
  key_state_[key] = kPrefetchedUnused;
}

void StallStateMachine::OnExpertServed(uint64_t key) {
  if (key < key_state_.size()) {
    key_state_[key] = kNoIntent;
  }
}

void StallStateMachine::OnEvicted(uint64_t key) {
  if (key < key_state_.size() && key_state_[key] == kPrefetchedUnused) {
    key_state_[key] = kEvictedBeforeUse;
  }
}

StallClass StallStateMachine::ClassifyMiss(uint64_t key, MissKind kind) {
  if (kind == MissKind::kQueuedPromoted || kind == MissKind::kInFlightLate) {
    // A prefetch for this key exists right now but has not landed: in-flight by definition,
    // regardless of any older evicted copy.
    return StallClass::kPrefetchInFlight;
  }
  // Full miss. If a previously prefetched copy was evicted before its first use, the miss is
  // the eviction's fault; the mark is consumed so later misses count as never-prefetched.
  if (key < key_state_.size() && key_state_[key] == kEvictedBeforeUse) {
    key_state_[key] = kNoIntent;
    return StallClass::kEvictedBeforeUse;
  }
  return StallClass::kNeverPrefetched;
}

void StallStateMachine::AttributeStall(StallClass cls, double seconds) {
  const size_t i = static_cast<size_t>(cls);
  FMOE_CHECK(i < static_cast<size_t>(StallClass::kCount));
  stall_.seconds[i] += seconds;
  stall_.misses[i] += 1;
  // Same addition sequence as the engine's demand_stall accumulation (one add per served
  // miss, in serve order) so the totals compare bitwise equal.
  stall_.total_seconds += seconds;
  stall_.total_misses += 1;
}

void StallStateMachine::AttributeStallTier(StallTier tier, double seconds) {
  const size_t i = static_cast<size_t>(tier);
  FMOE_CHECK(i < static_cast<size_t>(StallTier::kCount));
  stall_.tier_seconds[i] += seconds;
  stall_.tier_misses[i] += 1;
}

}  // namespace fmoe
