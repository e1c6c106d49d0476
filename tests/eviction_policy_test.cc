#include "src/cache/eviction_policy.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

CacheEntry Entry(double last_access, double frequency, double probability) {
  CacheEntry entry;
  entry.last_access = last_access;
  entry.frequency = frequency;
  entry.probability = probability;
  return entry;
}

constexpr EvictionRule kLru = EvictionRule::kLru;
constexpr EvictionRule kLfu = EvictionRule::kLfu;
constexpr EvictionRule kPriorityLfu = EvictionRule::kPriorityLfu;

TEST(LruPolicyTest, OlderAccessEvictsFirst) {
  const CacheEntry old_entry = Entry(1.0, 10.0, 0.9);
  const CacheEntry new_entry = Entry(9.0, 0.0, 0.0);
  EXPECT_GT(EvictionScore(kLru, old_entry, 10.0), EvictionScore(kLru, new_entry, 10.0));
  EXPECT_EQ(EvictionScore(kLru, old_entry, 10.0), 9.0);  // The age now - last_access.
}

TEST(LruPolicyTest, IgnoresFrequencyAndProbability) {
  const CacheEntry a = Entry(5.0, 100.0, 0.99);
  const CacheEntry b = Entry(5.0, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(EvictionScore(kLru, a, 10.0), EvictionScore(kLru, b, 10.0));
}

TEST(LfuPolicyTest, LowerFrequencyEvictsFirst) {
  const CacheEntry rare = Entry(9.0, 1.0, 0.9);
  const CacheEntry frequent = Entry(1.0, 10.0, 0.0);
  EXPECT_GT(EvictionScore(kLfu, rare, 10.0), EvictionScore(kLfu, frequent, 10.0));
  EXPECT_EQ(EvictionScore(kLfu, frequent, 10.0), 0.1);  // 1 / freq, independent of now.
  EXPECT_EQ(EvictionScore(kLfu, frequent, 0.0), 0.1);
}

TEST(LfuPolicyTest, ZeroFrequencyIsFiniteAndWorst) {
  const CacheEntry never = Entry(0.0, 0.0, 0.0);
  const CacheEntry once = Entry(0.0, 1.0, 0.0);
  EXPECT_GT(EvictionScore(kLfu, never, 1.0), EvictionScore(kLfu, once, 1.0));
  // The frequency floor 0.5 caps a never-hit entry's score at 2.
  EXPECT_EQ(EvictionScore(kLfu, never, 1.0), 2.0);
}

TEST(PriorityLfuPolicyTest, MatchesPaperFormula) {
  const CacheEntry entry = Entry(0.0, 4.0, 0.5);
  // PRI^evict = 1 / (p * freq) = 1 / 2.
  EXPECT_DOUBLE_EQ(EvictionScore(kPriorityLfu, entry, 1.0), 0.5);
  // The field overload is the same arithmetic.
  EXPECT_EQ(EvictionScore(kPriorityLfu, 0.0, 4.0, 0.5, 1.0),
            EvictionScore(kPriorityLfu, entry, 1.0));
}

TEST(PriorityLfuPolicyTest, LowProbabilityEvictsBeforeHighProbability) {
  const CacheEntry unlikely = Entry(0.0, 5.0, 0.01);
  const CacheEntry likely = Entry(0.0, 5.0, 0.8);
  EXPECT_GT(EvictionScore(kPriorityLfu, unlikely, 1.0), EvictionScore(kPriorityLfu, likely, 1.0));
}

TEST(PriorityLfuPolicyTest, ProbabilityCanRescueInfrequentExpert) {
  // The fMoE property: an expert the current map assigns high probability survives even with
  // low frequency, unlike plain LFU.
  const CacheEntry fresh_predicted = Entry(0.0, 0.0, 0.9);
  const CacheEntry stale_frequent = Entry(0.0, 3.0, 0.01);
  EXPECT_LT(EvictionScore(kPriorityLfu, fresh_predicted, 1.0),
            EvictionScore(kPriorityLfu, stale_frequent, 1.0));
  EXPECT_GT(EvictionScore(kLfu, fresh_predicted, 1.0), EvictionScore(kLfu, stale_frequent, 1.0));
}

TEST(PriorityLfuPolicyTest, ZeroProbabilityIsFinite) {
  // Both floors: 1 / (1e-4 * 0.5).
  EXPECT_DOUBLE_EQ(EvictionScore(kPriorityLfu, Entry(0.0, 0.0, 0.0), 1.0), 2e4);
}

TEST(ParseEvictionRuleTest, ParsesAllKnownNames) {
  EvictionRule rule = kLru;
  ASSERT_TRUE(ParseEvictionRule("LFU", &rule));
  EXPECT_EQ(rule, kLfu);
  ASSERT_TRUE(ParseEvictionRule("fMoE-PriorityLFU", &rule));
  EXPECT_EQ(rule, kPriorityLfu);
  ASSERT_TRUE(ParseEvictionRule("LRU", &rule));
  EXPECT_EQ(rule, kLru);
  EXPECT_EQ(EvictionRuleNamed("fMoE-PriorityLFU"), kPriorityLfu);
}

TEST(ParseEvictionRuleTest, RejectsUnknownNameAndLeavesRule) {
  EvictionRule rule = kLfu;
  for (const char* name : {"bogus", "lru", "", "PriorityLFU", "LRU "}) {
    EXPECT_FALSE(ParseEvictionRule(name, &rule)) << name;
    EXPECT_EQ(rule, kLfu) << name;
  }
}

using EvictionRuleNamedDeathTest = ::testing::Test;

TEST(EvictionRuleNamedDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(EvictionRuleNamed("bogus"), "unknown eviction policy");
}

}  // namespace
}  // namespace fmoe
