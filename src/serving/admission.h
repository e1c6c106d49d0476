// Admission control for the continuous-batching scheduler and the online harness
// (DESIGN.md §5j).
//
// Every admission decision the scheduler used to hard-code — how many requests may share the
// lockstep batch, whether a queued request is worth serving at all — goes through one
// AdmissionController, whose policy is a value:
//
//   * open-loop — the historical behaviour, bit for bit: BeginAdmission never updates, so the
//     batch limit and prefetch distance stay at their configured values, and ShouldReject
//     never sheds. The default policy, so untouched configurations replay the legacy
//     scheduler byte-identically (golden-pinned).
//   * gradient — a closed-loop controller in the spirit of Envoy's adaptive-concurrency /
//     admission-control filters (see ROADMAP; ProMoE arXiv:2410.22134 and ExpertFlow
//     arXiv:2510.26730 make the serving-side case). It keeps a sliding window of the engine's
//     classified demand stalls in virtual time and, at each update:
//       - shrinks the admitted batch size multiplicatively when the evicted-before-use share
//         of the window's stall seconds (the cache-thrash ratio) spikes, growing it back
//         additively when the cache is healthy (AIMD, like congestion control);
//       - raises the engine's effective prefetch distance when the prefetch-in-flight share
//         dominates (prefetches are issued but land late: a lead-time problem), decaying it
//         back toward the configured distance otherwise;
//       - sheds queued requests early when their wait already consumes the SLO budget, so a
//         storm degrades into bounded-latency service + explicit rejections instead of an
//         unbounded queue.
//
// The scheduler asks BatchLimit/ShouldReject per admission pass; the engine the controller is
// attached to records each served miss's stall here (RecordStall), clears the window when its
// metrics reset, and pulls PrefetchDistance at iteration boundaries; the online harness runs
// one controller per replica (composing with the router).
//
// All decisions run in virtual time off deterministic signals, so closed-loop runs are as
// reproducible as open-loop ones.
#ifndef FMOE_SRC_SERVING_ADMISSION_H_
#define FMOE_SRC_SERVING_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/obs/control_signals.h"
#include "src/workload/workload.h"

namespace fmoe {

enum class AdmissionPolicyKind : uint8_t {
  kOpenLoop = 0,  // Fixed knobs; never rejects (the legacy scheduler behaviour).
  kGradient = 1,  // Closed-loop AIMD on batch size + distance + SLO shedding.
};

bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicyKind* kind);
const char* AdmissionPolicyName(AdmissionPolicyKind kind);

struct AdmissionOptions {
  AdmissionPolicyKind policy = AdmissionPolicyKind::kOpenLoop;
  // End-to-end latency objective in seconds; 0 disables SLO shedding. The gradient
  // controller sheds a queued request once its wait alone exceeds
  // slo_sec * AdmissionController::kShedFraction (the rest belongs to service time).
  double slo_sec = 0.0;
  // Stall window and controller cadence, both in virtual seconds.
  double window_sec = 0.5;
  double update_period_sec = 0.05;
  // AIMD gain: multiplicative-decrease factor on thrash (limit *= 1 - gain) and the additive
  // step on recovery (limit += gain).
  double gain = 0.5;
};

// Conservation counters the controller maintains: each request handed to the scheduler is
// counted arrived exactly once, and leaves the queue as exactly one of admitted/rejected —
// the ControllerBookkeepingConsistent invariant the engine fuzz checks
// (admitted + still-queued + rejected == arrived).
struct AdmissionCounters {
  uint64_t arrived = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
};

class AdmissionController {
 public:
  // Fixed gradient-policy constants.
  static constexpr double kShedFraction = 0.5;       // SLO share a queued wait may burn.
  static constexpr double kThrashThreshold = 0.25;   // Thrash ratio above this shrinks the batch.
  static constexpr double kInflightThreshold = 0.5;  // In-flight share above this adds distance.
  static constexpr int kMinBatch = 1;                // Floor for the controlled batch limit.
  static constexpr int kMaxPrefetchDistance = 8;     // Ceiling for the controlled distance.

  explicit AdmissionController(const AdmissionOptions& options);

  AdmissionPolicyKind kind() const { return options_.policy; }
  const char* name() const { return AdmissionPolicyName(kind()); }

  // Called once per admission pass, before any BatchLimit/ShouldReject query. The gradient
  // policy runs at most one control update per update_period_sec of virtual time here, so
  // the number of controller actions is a function of the trace, not of how often the
  // scheduler polls; open loop never updates.
  void BeginAdmission(double now);

  // Number of requests that may be active concurrently: configured_max until an update
  // shrinks it (never below kMinBatch, so admission always makes progress).
  int BatchLimit(int configured_max, double now);

  // True to shed `request` (it has arrived and is still queued at `now`). A shed request
  // leaves the queue immediately and is never served. Open loop never sheds.
  bool ShouldReject(const Request& request, double now) const;

  // Effective prefetch distance, given the engine's configured one: `configured` plus the
  // controlled boost, which only an update raises.
  int PrefetchDistance(int configured, double now) const;

  // A served miss stalled the pipeline for `seconds` (>= 0) with cause `cls` at `now`. The
  // window keeps the stalls no older than window_sec before the latest record or update.
  void RecordStall(StallClass cls, double seconds, double now);
  // Drops every recorded stall (the engine's metrics reset after warmup).
  void Clear() { stalls_.clear(); }

  // Bookkeeping notifications from the consumer (scheduler or cluster harness); they only
  // maintain the conservation counters.
  void OnArrived(uint64_t n = 1) { counters_.arrived += n; }
  void OnAdmitted() { ++counters_.admitted; }
  void OnRejected() { ++counters_.rejected; }

  const AdmissionCounters& counters() const { return counters_; }

  // Controller state, for tests.
  double controlled_batch_limit() const { return batch_limit_; }
  int distance_boost() const { return distance_boost_; }
  uint64_t control_updates() const { return control_updates_; }

 private:
  struct StallEvent {
    double at;
    double seconds;
    StallClass cls;
  };

  // Drops stalls recorded before now - window_sec from the front of the window.
  void Expire(double now);

  AdmissionOptions options_;
  AdmissionCounters counters_;
  std::deque<StallEvent> stalls_;  // Record order, which is virtual-time order.
  double batch_limit_ = -1.0;      // Continuous AIMD state; < 0 = uninitialised.
  int distance_boost_ = 0;         // Layers added on top of the configured distance.
  double last_update_ = 0.0;
  bool updated_once_ = false;
  uint64_t control_updates_ = 0;
};

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_ADMISSION_H_
