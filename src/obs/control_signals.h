// Stall attribution: the taxonomy and the classifier behind it (DESIGN.md §5f, §5j).
//
// Every demand-stall second is classified as never-prefetched / prefetch-in-flight /
// evicted-before-use. StallStateMachine is the per-key prefetch-lifecycle classifier. Each
// ServingEngine owns exactly one, always on, fed at the engine's own hook points; the trace,
// the stall report and a closed-loop admission controller's stall window
// (src/serving/admission.h) all read its verdicts, so each miss is classified once.
//
// Everything here runs in virtual time (the engine's SimClock), so closed-loop decisions made
// on these verdicts are deterministic: the same trace + knobs produce the same controller
// actions on any machine.
#ifndef FMOE_SRC_OBS_CONTROL_SIGNALS_H_
#define FMOE_SRC_OBS_CONTROL_SIGNALS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fmoe {

// Why a demand stall happened (the decomposition of LatencyBreakdown::demand_stall).
enum class StallClass : uint8_t {
  kNeverPrefetched = 0,   // No live prefetch intent for the key when the gate asked.
  kPrefetchInFlight = 1,  // A prefetch existed but had not landed (queued or transferring).
  kEvictedBeforeUse = 2,  // A prefetched copy was evicted before its first use.
  kCount,
};

const char* StallClassName(StallClass cls);

// Which storage tier ultimately served a missed expert's bytes (the tier decomposition that
// the multi-tier store adds on top of the StallClass taxonomy). Legacy two-tier runs charge
// every miss to kHost — the offloaded copy lives host-side there by definition.
enum class StallTier : uint8_t {
  kHost = 0,  // Served from a host-RAM copy (hit-in-host).
  kNvme = 1,  // Had to read NVMe (hit-in-nvme: staged through host or the direct path).
  kCount,
};

const char* StallTierName(StallTier tier);

// How the engine found the expert when the gate demanded it.
enum class MissKind : uint8_t {
  kNeverResident = 0,   // Full miss: no cache entry at all.
  kQueuedPromoted = 1,  // Prefetch enqueued but not started; promoted to a demand load.
  kInFlightLate = 2,    // Prefetch transfer started but lands after the gate asked.
};

// Accumulated stall attribution. `total_seconds` is accumulated with the same addition
// sequence as the engine's demand_stall metric (one add per served miss, in serve order), so
// the two compare bitwise equal; the per-class buckets partition the same stalls. The tier
// buckets are an independent second partition of the same misses by serving tier.
struct StallAttribution {
  std::array<double, static_cast<size_t>(StallClass::kCount)> seconds = {};
  std::array<uint64_t, static_cast<size_t>(StallClass::kCount)> misses = {};
  std::array<double, static_cast<size_t>(StallTier::kCount)> tier_seconds = {};
  std::array<uint64_t, static_cast<size_t>(StallTier::kCount)> tier_misses = {};
  double total_seconds = 0.0;
  uint64_t total_misses = 0;

  double CategorySum() const;  // seconds[0] + seconds[1] + seconds[2].
  double TierSum() const;      // tier_seconds[0] + tier_seconds[1].
};

// Per-key prefetch-lifecycle state machine: watches prefetch-issue, first-use, and eviction
// events and classifies every demand miss. A serving engine owns the only instance of a run
// and feeds it unconditionally, so the classification marks ClassifyMiss consumes are seen
// by exactly one classifier whatever observers are attached. Keys are flat expert indices;
// per-key state is a dense byte column grown on prefetch issue, and a key past its end has
// no state.
class StallStateMachine {
 public:
  // A policy-initiated load (prefetch or blocking speculative load) was issued for `key`.
  void OnPrefetchIssued(uint64_t key);
  // The expert was served (hit or miss); any pending prefetch intent is consumed.
  void OnExpertServed(uint64_t key);
  // The key's cache entry was evicted or removed.
  void OnEvicted(uint64_t key);
  // Classifies a demand miss observed at issue time (consumes evicted-before-use marks).
  StallClass ClassifyMiss(uint64_t key, MissKind kind);
  // Charges `seconds` of demand stall (>= 0, possibly 0 for fully hidden misses) to `cls`.
  void AttributeStall(StallClass cls, double seconds);
  // Charges the same stall to the tier that served the bytes (the orthogonal partition;
  // callers invoke this alongside AttributeStall for every served miss).
  void AttributeStallTier(StallTier tier, double seconds);

  const StallAttribution& stall() const { return stall_; }

  // Zeroes the attribution accumulators but keeps the per-key prefetch state — prefetches
  // issued during warmup are still live intent for the measured phase.
  void ResetAttribution() { stall_ = StallAttribution{}; }

 private:
  // Per-key prefetch lifecycle for classification, one byte per flat key.
  enum KeyState : uint8_t {
    kNoIntent = 0,          // No live prefetch intent (never prefetched, or served).
    kPrefetchedUnused = 1,  // Loaded by policy intent, not yet served.
    kEvictedBeforeUse = 2,  // That copy was evicted before any serve.
  };

  StallAttribution stall_;
  std::vector<uint8_t> key_state_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_OBS_CONTROL_SIGNALS_H_
