#include "src/obs/control_signals.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(StallStateMachineTest, FullMissWithNoIntentIsNeverPrefetched) {
  StallStateMachine machine;
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, QueuedAndLatePrefetchesClassifyAsInFlight) {
  StallStateMachine machine;
  machine.OnPrefetchIssued(7);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kQueuedPromoted),
            StallClass::kPrefetchInFlight);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kInFlightLate),
            StallClass::kPrefetchInFlight);
}

TEST(StallStateMachineTest, EvictionBeforeFirstUseChargesTheEviction) {
  StallStateMachine machine;
  machine.OnPrefetchIssued(7);
  machine.OnEvicted(7);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kEvictedBeforeUse);
  // The mark is consumed: the next full miss on the same key is an ordinary cold miss.
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, ServeConsumesPrefetchIntent) {
  StallStateMachine machine;
  machine.OnPrefetchIssued(7);
  machine.OnExpertServed(7);  // First use: the prefetch did its job.
  machine.OnEvicted(7);       // Evicting a *used* copy is not thrash.
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, EvictingUnknownKeyIsIgnored) {
  StallStateMachine machine;
  machine.OnEvicted(99);  // Never prefetched: demand-loaded entries carry no intent.
  EXPECT_EQ(machine.ClassifyMiss(99, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
}

TEST(StallStateMachineTest, AttributionPartitionsTotalsByClassAndTier) {
  StallStateMachine machine;
  machine.AttributeStall(StallClass::kNeverPrefetched, 0.5);
  machine.AttributeStall(StallClass::kPrefetchInFlight, 0.25);
  machine.AttributeStall(StallClass::kEvictedBeforeUse, 0.0);  // Fully hidden miss.
  machine.AttributeStallTier(StallTier::kHost, 0.5);
  machine.AttributeStallTier(StallTier::kNvme, 0.25);
  machine.AttributeStallTier(StallTier::kHost, 0.0);

  const StallAttribution& stall = machine.stall();
  EXPECT_DOUBLE_EQ(stall.total_seconds, 0.75);
  EXPECT_EQ(stall.total_misses, 3u);
  EXPECT_DOUBLE_EQ(stall.CategorySum(), stall.total_seconds);
  EXPECT_DOUBLE_EQ(stall.TierSum(), stall.total_seconds);
  EXPECT_EQ(stall.misses[static_cast<size_t>(StallClass::kEvictedBeforeUse)], 1u);
  EXPECT_EQ(stall.tier_misses[static_cast<size_t>(StallTier::kHost)], 2u);
}

TEST(StallStateMachineTest, ResetAttributionKeepsPrefetchLifecycleState) {
  StallStateMachine machine;
  machine.OnPrefetchIssued(7);
  machine.OnEvicted(7);
  machine.AttributeStall(StallClass::kNeverPrefetched, 1.0);
  machine.ResetAttribution();
  EXPECT_DOUBLE_EQ(machine.stall().total_seconds, 0.0);
  EXPECT_EQ(machine.stall().total_misses, 0u);
  // Warmup intent survives the reset: the evicted-before-use mark still classifies.
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kEvictedBeforeUse);
}

TEST(StallStateMachineTest, KeysPastTheGrownColumnHaveNoState) {
  StallStateMachine machine;
  machine.OnPrefetchIssued(3);  // Grows the per-key column to 4 entries.
  machine.OnEvicted(1000);      // Past the end: ignored, and nothing grows.
  machine.OnExpertServed(1000);
  EXPECT_EQ(machine.ClassifyMiss(1000, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);
  EXPECT_EQ(machine.ClassifyMiss(2, MissKind::kNeverResident),
            StallClass::kNeverPrefetched);  // Inside the column, never prefetched.
  machine.OnEvicted(3);
  EXPECT_EQ(machine.ClassifyMiss(3, MissKind::kNeverResident),
            StallClass::kEvictedBeforeUse);
}

TEST(StallStateMachineTest, RePrefetchAfterServeIsLiveIntentAgain) {
  StallStateMachine machine;
  machine.OnPrefetchIssued(7);
  machine.OnExpertServed(7);
  machine.OnPrefetchIssued(7);  // A new copy, again unused when it is evicted.
  machine.OnEvicted(7);
  EXPECT_EQ(machine.ClassifyMiss(7, MissKind::kNeverResident),
            StallClass::kEvictedBeforeUse);
}

TEST(StallAttributionTest, AttributeStallAccumulatesPerClassAndTotal) {
  StallStateMachine machine;
  machine.AttributeStall(StallClass::kNeverPrefetched, 0.5);
  machine.AttributeStall(StallClass::kEvictedBeforeUse, 0.25);
  machine.AttributeStall(StallClass::kEvictedBeforeUse, 0.25);
  const StallAttribution& stall = machine.stall();
  EXPECT_DOUBLE_EQ(stall.seconds[static_cast<size_t>(StallClass::kNeverPrefetched)], 0.5);
  EXPECT_DOUBLE_EQ(stall.seconds[static_cast<size_t>(StallClass::kEvictedBeforeUse)], 0.5);
  EXPECT_EQ(stall.misses[static_cast<size_t>(StallClass::kEvictedBeforeUse)], 2u);
  EXPECT_DOUBLE_EQ(stall.total_seconds, 1.0);
  EXPECT_EQ(stall.total_misses, 3u);
  EXPECT_DOUBLE_EQ(stall.CategorySum(), 1.0);
}

TEST(StallAttributionTest, TierBucketsPartitionIndependently) {
  StallStateMachine machine;
  machine.AttributeStall(StallClass::kNeverPrefetched, 0.5);
  machine.AttributeStallTier(StallTier::kNvme, 0.5);
  machine.AttributeStall(StallClass::kPrefetchInFlight, 0.25);
  machine.AttributeStallTier(StallTier::kHost, 0.25);
  const StallAttribution& stall = machine.stall();
  EXPECT_DOUBLE_EQ(stall.tier_seconds[static_cast<size_t>(StallTier::kNvme)], 0.5);
  EXPECT_DOUBLE_EQ(stall.tier_seconds[static_cast<size_t>(StallTier::kHost)], 0.25);
  EXPECT_EQ(stall.tier_misses[static_cast<size_t>(StallTier::kNvme)], 1u);
  EXPECT_EQ(stall.tier_misses[static_cast<size_t>(StallTier::kHost)], 1u);
  // Both partitions cover the same misses: their sums agree with the serve-order total.
  EXPECT_DOUBLE_EQ(stall.TierSum(), stall.CategorySum());
  EXPECT_DOUBLE_EQ(stall.TierSum(), stall.total_seconds);
}

}  // namespace
}  // namespace fmoe
