#include "src/serving/admission.h"

#include <gtest/gtest.h>

#include "src/workload/workload.h"

namespace fmoe {
namespace {

Request At(double arrival) {
  Request request;
  request.arrival_time = arrival;
  return request;
}

AdmissionOptions GradientOptions() {
  AdmissionOptions options;
  options.policy = AdmissionPolicyKind::kGradient;
  options.slo_sec = 2.0;
  options.window_sec = 1.0;
  options.update_period_sec = 0.1;
  options.gain = 0.5;
  return options;
}

// Records `n` stall events of class `cls` into the controller's window, then runs one control
// update at `now`.
void UpdateWithStalls(AdmissionController* controller, StallClass cls, int n, double seconds,
                      double now) {
  for (int i = 0; i < n; ++i) {
    controller->RecordStall(cls, seconds, now);
  }
  controller->BeginAdmission(now);
}

TEST(AdmissionPolicyTest, ParseAndName) {
  AdmissionPolicyKind kind = AdmissionPolicyKind::kGradient;
  EXPECT_TRUE(ParseAdmissionPolicy("open-loop", &kind));
  EXPECT_EQ(kind, AdmissionPolicyKind::kOpenLoop);
  EXPECT_TRUE(ParseAdmissionPolicy("gradient", &kind));
  EXPECT_EQ(kind, AdmissionPolicyKind::kGradient);
  EXPECT_FALSE(ParseAdmissionPolicy("pid", &kind));
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicyKind::kOpenLoop), "open-loop");
  EXPECT_STREQ(AdmissionPolicyName(AdmissionPolicyKind::kGradient), "gradient");
}

TEST(AdmissionPolicyTest, FactoryDispatchesOnPolicy) {
  AdmissionOptions options;
  EXPECT_EQ(AdmissionController(options).kind(), AdmissionPolicyKind::kOpenLoop);
  EXPECT_STREQ(AdmissionController(options).name(), "open-loop");
  options.policy = AdmissionPolicyKind::kGradient;
  EXPECT_EQ(AdmissionController(options).kind(), AdmissionPolicyKind::kGradient);
  EXPECT_STREQ(AdmissionController(options).name(), "gradient");
}

TEST(OpenLoopAdmissionTest, NeverMovesAnyKnob) {
  // Gradient-style values everywhere, policy left at open loop.
  AdmissionOptions options = GradientOptions();
  options.policy = AdmissionPolicyKind::kOpenLoop;
  options.slo_sec = 0.001;
  AdmissionController controller(options);
  EXPECT_EQ(controller.BatchLimit(4, 0.0), 4);
  // Even with heavy recorded distress of both kinds, open loop never updates and returns
  // the configured values verbatim.
  for (int step = 1; step <= 4; ++step) {
    const double now = static_cast<double>(step);
    UpdateWithStalls(&controller, StallClass::kEvictedBeforeUse, 4, 5.0, now);
    UpdateWithStalls(&controller, StallClass::kPrefetchInFlight, 8, 5.0, now);
  }
  EXPECT_EQ(controller.control_updates(), 0u);
  EXPECT_EQ(controller.BatchLimit(4, 4.0), 4);
  EXPECT_EQ(controller.PrefetchDistance(3, 4.0), 3);
  EXPECT_FALSE(controller.ShouldReject(At(0.0), 1000.0));
}

TEST(AdmissionCountersTest, HooksMaintainConservation) {
  AdmissionController controller(AdmissionOptions{});
  controller.OnArrived(5);
  controller.OnAdmitted();
  controller.OnAdmitted();
  controller.OnRejected();
  EXPECT_EQ(controller.counters().arrived, 5u);
  EXPECT_EQ(controller.counters().admitted, 2u);
  EXPECT_EQ(controller.counters().rejected, 1u);
}

TEST(GradientAdmissionTest, SeedsBatchLimitFromConfiguredMax) {
  AdmissionController controller(GradientOptions());
  EXPECT_EQ(controller.BatchLimit(4, 0.0), 4);
}

TEST(GradientAdmissionTest, ThrashShrinksBatchMultiplicatively) {
  AdmissionController controller(GradientOptions());
  ASSERT_EQ(controller.BatchLimit(8, 0.0), 8);
  // Every stall second in the window is evicted-before-use: thrash ratio 1 > threshold.
  UpdateWithStalls(&controller, StallClass::kEvictedBeforeUse, 4, 0.1, 0.5);
  EXPECT_DOUBLE_EQ(controller.controlled_batch_limit(), 4.0);  // 8 * (1 - gain).
  EXPECT_EQ(controller.BatchLimit(8, 0.5), 4);
  UpdateWithStalls(&controller, StallClass::kEvictedBeforeUse, 4, 0.1, 0.7);
  EXPECT_EQ(controller.BatchLimit(8, 0.7), 2);
}

TEST(GradientAdmissionTest, BatchLimitNeverFallsBelowMinBatch) {
  AdmissionController controller(GradientOptions());
  ASSERT_EQ(controller.BatchLimit(4, 0.0), 4);
  for (int step = 1; step <= 8; ++step) {
    UpdateWithStalls(&controller, StallClass::kEvictedBeforeUse, 4, 0.1,
                     0.5 * static_cast<double>(step));
  }
  EXPECT_DOUBLE_EQ(controller.controlled_batch_limit(), AdmissionController::kMinBatch);
  EXPECT_EQ(controller.BatchLimit(4, 5.0), AdmissionController::kMinBatch);
}

TEST(GradientAdmissionTest, HealthyWindowsGrowTheBatchBackAdditively) {
  AdmissionController controller(GradientOptions());
  ASSERT_EQ(controller.BatchLimit(8, 0.0), 8);
  UpdateWithStalls(&controller, StallClass::kEvictedBeforeUse, 4, 0.1, 0.5);
  ASSERT_EQ(controller.BatchLimit(8, 0.5), 4);
  // Quiet windows (no stall events recorded; old ones expire) step the limit back up by
  // `gain` per update: 4.0 -> 4.5 -> 5.0 -> ... -> 8, then clamp at the configured max.
  for (int step = 0; step < 12; ++step) {
    controller.BeginAdmission(2.0 + 0.1 * static_cast<double>(step));
  }
  EXPECT_EQ(controller.BatchLimit(8, 4.0), 8);
  EXPECT_DOUBLE_EQ(controller.controlled_batch_limit(), 8.0);  // Clamped, not unbounded.
}

TEST(GradientAdmissionTest, InFlightPressureRaisesPrefetchDistance) {
  AdmissionController controller(GradientOptions());
  EXPECT_EQ(controller.PrefetchDistance(3, 0.0), 3);
  UpdateWithStalls(&controller, StallClass::kPrefetchInFlight, 4, 0.1, 0.5);
  EXPECT_EQ(controller.distance_boost(), 1);
  EXPECT_EQ(controller.PrefetchDistance(3, 0.5), 4);
  // Boost is capped at kMaxPrefetchDistance no matter how long the pressure lasts.
  for (int step = 1; step <= 10; ++step) {
    UpdateWithStalls(&controller, StallClass::kPrefetchInFlight, 4, 0.1,
                     0.5 + 0.5 * static_cast<double>(step));
  }
  EXPECT_EQ(controller.PrefetchDistance(3, 6.0), AdmissionController::kMaxPrefetchDistance);
  // Anti-windup: the boost integrator is capped at the same clamp as the output.
  EXPECT_EQ(controller.distance_boost(), AdmissionController::kMaxPrefetchDistance);
  // And decays once the in-flight share drops (quiet updates, stalls expired).
  const int peak = controller.distance_boost();
  controller.BeginAdmission(100.0);
  EXPECT_LT(controller.distance_boost(), peak);
  for (int step = 0; step < 12; ++step) {
    controller.BeginAdmission(101.0 + 0.5 * static_cast<double>(step));
  }
  EXPECT_EQ(controller.distance_boost(), 0);
  EXPECT_EQ(controller.PrefetchDistance(3, 102.0), 3);
}

TEST(GradientAdmissionTest, ShedsOnceWaitBurnsTheSloBudget) {
  AdmissionOptions options = GradientOptions();
  options.slo_sec = 2.0;  // kShedFraction 0.5 of it: a 1.0 s wait budget.
  AdmissionController controller(options);
  EXPECT_FALSE(controller.ShouldReject(At(10.0), 10.9));  // Waited 0.9 < 1.0.
  EXPECT_TRUE(controller.ShouldReject(At(10.0), 11.1));   // Waited 1.1 > 1.0.
}

TEST(GradientAdmissionTest, ZeroSloDisablesShedding) {
  AdmissionOptions options = GradientOptions();
  options.slo_sec = 0.0;
  AdmissionController controller(options);
  EXPECT_FALSE(controller.ShouldReject(At(0.0), 1.0e6));
}

TEST(GradientAdmissionTest, UpdateCadenceIsBoundedByPeriod) {
  AdmissionOptions options = GradientOptions();
  options.update_period_sec = 1.0;
  AdmissionController controller(options);
  // Twenty polls across 2 s of virtual time: at most 1 (initial) + 2 period boundaries.
  for (int poll = 0; poll <= 20; ++poll) {
    controller.BeginAdmission(0.1 * static_cast<double>(poll));
  }
  EXPECT_EQ(controller.control_updates(), 3u);
}

// The stall window: the controller reads the evicted-before-use and prefetch-in-flight shares
// of the stall seconds recorded within window_sec before each update.
TEST(AdmissionWindowTest, EmptyWindowIsHealthy) {
  AdmissionController controller(GradientOptions());
  ASSERT_EQ(controller.BatchLimit(4, 0.0), 4);
  controller.BeginAdmission(10.0);
  EXPECT_DOUBLE_EQ(controller.controlled_batch_limit(), 4.5);  // One additive step.
  EXPECT_EQ(controller.distance_boost(), 0);
  // Zero-second stalls (fully hidden misses) leave the window without stall seconds: healthy.
  UpdateWithStalls(&controller, StallClass::kEvictedBeforeUse, 4, 0.0, 10.5);
  EXPECT_DOUBLE_EQ(controller.controlled_batch_limit(), 5.0);
}

TEST(AdmissionWindowTest, EventsOutsideTheWindowExpire) {
  AdmissionOptions options = GradientOptions();  // window_sec = 1.0.
  AdmissionController expired(options);
  ASSERT_EQ(expired.BatchLimit(8, 0.0), 8);
  expired.RecordStall(StallClass::kEvictedBeforeUse, 0.5, 10.0);
  expired.RecordStall(StallClass::kPrefetchInFlight, 0.5, 10.0);
  UpdateWithStalls(&expired, StallClass::kNeverPrefetched, 1, 0.25, 12.0);
  // Both distress events fell out of [11.0, 12.0]: only the never-prefetched stall is left.
  EXPECT_DOUBLE_EQ(expired.controlled_batch_limit(), 8.5);
  EXPECT_EQ(expired.distance_boost(), 0);

  // An update expires against its own instant too: at 12.5 the window is [11.5, 12.5], so a
  // stall at exactly 11.5 still counts and one at 11.4 does not.
  AdmissionController boundary(options);
  ASSERT_EQ(boundary.BatchLimit(8, 0.0), 8);
  boundary.RecordStall(StallClass::kNeverPrefetched, 1.0, 11.4);  // Kept: thrash ratio 0.2.
  boundary.RecordStall(StallClass::kEvictedBeforeUse, 0.25, 11.5);
  boundary.BeginAdmission(12.5);
  EXPECT_DOUBLE_EQ(boundary.controlled_batch_limit(), 4.0);  // Thrash ratio 1: shrink.
}

TEST(AdmissionWindowTest, SharesSplitTheWindowsStallSeconds) {
  // Evicted-before-use 0.3 and in-flight 0.6 of 1.0 stall second: above both thresholds.
  AdmissionController distressed(GradientOptions());
  ASSERT_EQ(distressed.BatchLimit(8, 0.0), 8);
  distressed.RecordStall(StallClass::kEvictedBeforeUse, 0.3, 10.0);
  distressed.RecordStall(StallClass::kPrefetchInFlight, 0.6, 10.5);
  UpdateWithStalls(&distressed, StallClass::kNeverPrefetched, 1, 0.1, 11.0);
  EXPECT_DOUBLE_EQ(distressed.controlled_batch_limit(), 4.0);
  EXPECT_EQ(distressed.distance_boost(), 1);

  // The same seconds diluted by one more never-prefetched second: shares 0.15 and 0.3, below
  // both thresholds, so the window is healthy.
  AdmissionController diluted(GradientOptions());
  ASSERT_EQ(diluted.BatchLimit(8, 0.0), 8);
  diluted.RecordStall(StallClass::kEvictedBeforeUse, 0.3, 10.0);
  diluted.RecordStall(StallClass::kPrefetchInFlight, 0.6, 10.5);
  UpdateWithStalls(&diluted, StallClass::kNeverPrefetched, 1, 1.1, 11.0);
  EXPECT_DOUBLE_EQ(diluted.controlled_batch_limit(), 8.5);
  EXPECT_EQ(diluted.distance_boost(), 0);
}

TEST(AdmissionWindowTest, ClearForgetsEveryStall) {
  AdmissionController controller(GradientOptions());
  ASSERT_EQ(controller.BatchLimit(8, 0.0), 8);
  controller.OnArrived(3);
  controller.RecordStall(StallClass::kEvictedBeforeUse, 0.5, 10.0);
  controller.RecordStall(StallClass::kPrefetchInFlight, 0.5, 10.0);
  controller.Clear();
  controller.BeginAdmission(10.1);
  EXPECT_DOUBLE_EQ(controller.controlled_batch_limit(), 8.5);
  EXPECT_EQ(controller.distance_boost(), 0);
  EXPECT_EQ(controller.counters().arrived, 3u);  // Only the stall window is cleared.
}

TEST(GradientAdmissionDeathTest, RejectsNonsenseKnobs) {
  AdmissionOptions options = GradientOptions();
  options.gain = 1.5;
  EXPECT_DEATH(AdmissionController{options}, "gain");
  options = GradientOptions();
  options.window_sec = 0.0;
  EXPECT_DEATH(AdmissionController{options}, "window_sec");
  options = GradientOptions();
  options.update_period_sec = -1.0;
  EXPECT_DEATH(AdmissionController{options}, "update_period_sec");
}

}  // namespace
}  // namespace fmoe
