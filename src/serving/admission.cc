#include "src/serving/admission.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace fmoe {

bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicyKind* kind) {
  if (name == "open-loop") {
    *kind = AdmissionPolicyKind::kOpenLoop;
    return true;
  }
  if (name == "gradient") {
    *kind = AdmissionPolicyKind::kGradient;
    return true;
  }
  return false;
}

const char* AdmissionPolicyName(AdmissionPolicyKind kind) {
  switch (kind) {
    case AdmissionPolicyKind::kOpenLoop:
      return "open-loop";
    case AdmissionPolicyKind::kGradient:
      return "gradient";
    default:
      return "unknown";
  }
}

AdmissionController::AdmissionController(const AdmissionOptions& options) : options_(options) {
  FMOE_CHECK(options.window_sec > 0.0);
  FMOE_CHECK(options.gain > 0.0 && options.gain < 1.0);
  FMOE_CHECK(options.update_period_sec >= 0.0);
}

void AdmissionController::BeginAdmission(double now) {
  if (options_.policy == AdmissionPolicyKind::kOpenLoop) {
    return;
  }
  if (updated_once_ && now - last_update_ < options_.update_period_sec) {
    return;
  }
  updated_once_ = true;
  last_update_ = now;
  ++control_updates_;
  Expire(now);
  double total = 0.0;
  double thrash = 0.0;
  double inflight = 0.0;
  for (const StallEvent& ev : stalls_) {
    total += ev.seconds;
    if (ev.cls == StallClass::kEvictedBeforeUse) {
      thrash += ev.seconds;
    } else if (ev.cls == StallClass::kPrefetchInFlight) {
      inflight += ev.seconds;
    }
  }
  // Shares of the window's stall seconds; a window without stall seconds is healthy.
  const double thrash_ratio = total > 0.0 ? thrash / total : 0.0;
  const double inflight_share = total > 0.0 ? inflight / total : 0.0;

  // AIMD on the batch limit. Thrash (prefetched experts evicted before first use) means the
  // concurrent working sets overflow the expert cache: halve-ish the batch. A healthy window
  // earns one additive step back toward (and past, until clamped) the configured limit.
  if (batch_limit_ >= 0.0) {
    if (thrash_ratio > kThrashThreshold) {
      batch_limit_ =
          std::max(static_cast<double>(kMinBatch), batch_limit_ * (1.0 - options_.gain));
    } else {
      batch_limit_ += options_.gain;
    }
  }

  // Prefetch-distance control: when in-flight stall dominates, prefetches are issued but too
  // late — give the policy more lead layers. Decay the boost when the pressure is gone.
  // Anti-windup: never integrate past the distance clamp, or sustained pressure would make
  // the boost take arbitrarily many quiet windows to decay back to zero.
  if (inflight_share > kInflightThreshold) {
    distance_boost_ = std::min(distance_boost_ + 1, kMaxPrefetchDistance);
  } else if (distance_boost_ > 0) {
    --distance_boost_;
  }
}

int AdmissionController::BatchLimit(int configured_max, double /*now*/) {
  if (batch_limit_ < 0.0) {
    batch_limit_ = static_cast<double>(configured_max);  // First query seeds the AIMD state.
  }
  batch_limit_ = std::min(batch_limit_, static_cast<double>(configured_max));
  const int limit = static_cast<int>(std::floor(batch_limit_));
  return std::clamp(limit, kMinBatch, configured_max);
}

bool AdmissionController::ShouldReject(const Request& request, double now) const {
  if (options_.policy == AdmissionPolicyKind::kOpenLoop || options_.slo_sec <= 0.0) {
    return false;
  }
  // Wait-budget shedding: once queueing alone has eaten kShedFraction of the SLO, service
  // time on top of it would breach — reject now instead of serving a doomed request.
  const double waited = now - request.arrival_time;
  return waited > options_.slo_sec * kShedFraction;
}

int AdmissionController::PrefetchDistance(int configured, double /*now*/) const {
  return std::min(configured + distance_boost_, std::max(configured, kMaxPrefetchDistance));
}

void AdmissionController::RecordStall(StallClass cls, double seconds, double now) {
  FMOE_CHECK(seconds >= 0.0);
  Expire(now);
  stalls_.push_back(StallEvent{now, seconds, cls});
}

void AdmissionController::Expire(double now) {
  const double cutoff = now - options_.window_sec;
  while (!stalls_.empty() && stalls_.front().at < cutoff) {
    stalls_.pop_front();
  }
}

}  // namespace fmoe
