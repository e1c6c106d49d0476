// Differential property test: the indexed SoA ExpertCache versus the naive linear-scan
// ReferenceExpertCache (the pre-index implementation, preserved verbatim as an executable
// specification) under seeded random operation streams.
//
// "Equal" here is deliberately strict: not just the same resident set, but the same victim
// *sequence* entry by entry, bitwise-equal decayed frequencies (the indexed cache folds decay
// factors lazily; the reference multiplies eagerly every call), the same Keys() iteration
// order (the indexed cache mirrors the reference's hash-map order through the order oracle —
// this is what makes score-tie victim selection identical), and the same EvictionOrder. Any
// relaxation here would let the two caches drift on golden-pinned tie-breaks.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/eviction_policy.h"
#include "src/cache/expert_cache.h"
#include "src/cache/reference_cache.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

constexpr const char* kPolicies[] = {"LRU", "LFU", "fMoE-PriorityLFU"};

bool BitEqual(double a, double b) {
  uint64_t ia = 0;
  uint64_t ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia == ib;
}

void ExpectEntriesEqual(const CacheEntry& got, const CacheEntry& want, const char* where) {
  EXPECT_EQ(got.key, want.key) << where;
  EXPECT_EQ(got.bytes, want.bytes) << where;
  EXPECT_TRUE(BitEqual(got.frequency, want.frequency))
      << where << ": frequency " << got.frequency << " vs " << want.frequency << " for key "
      << want.key;
  EXPECT_TRUE(BitEqual(got.probability, want.probability)) << where;
  EXPECT_TRUE(BitEqual(got.last_access, want.last_access)) << where;
  EXPECT_EQ(got.pin_count, want.pin_count) << where;
  EXPECT_EQ(got.prefetch_pending, want.prefetch_pending) << where;
  EXPECT_EQ(got.transfer_tag, want.transfer_tag) << where;
  EXPECT_EQ(got.reduced_precision, want.reduced_precision) << where;
}

struct StreamOptions {
  uint64_t seed = 1;
  int ops = 4000;
  // Constant factor = the engine's steady state (one rebase, then pure scheduled crossings);
  // random factors force a rebase per decay (correct but slow path).
  bool constant_decay = true;
  // Pin-heavy mix: pins are held across many evicting inserts and released in random order,
  // and resident entries are repeatedly pinned and unpinned with nothing changed in between
  // (the path where the indexed cache keeps the entry's heap node instead of re-pushing).
  bool pin_heavy = false;
};

// Operation kinds of the pin-heavy mix, drawn uniformly: 5/16 inserts, 2/16 pins, 2/16
// releases of a held pin, 2/16 pin/unpin round trips, one each of the rest. Kinds 0-7 are the
// default mix's; 8 = pin/unpin round trip, 9 = release a random held pin.
constexpr uint64_t kPinHeavyMix[16] = {0, 0, 0, 0, 0, 1, 2, 2, 9, 9, 8, 8, 4, 6, 7, 5};

// Drives both caches through an identical random operation stream, asserting equivalence
// after every operation. The indexed cache's index stats land in *stats_out (ASSERT_* macros
// require a void return) for complexity assertions.
void RunStream(const std::string& policy_name, const StreamOptions& options,
               CacheIndexStats* stats_out = nullptr) {
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy(policy_name);
  constexpr uint64_t kCapacity = 640;
  ExpertCache indexed(kCapacity, policy.get());
  ReferenceExpertCache reference(kCapacity, policy.get());

  Rng rng(options.seed);
  std::map<uint64_t, int> pins;  // Local pin ledger so pin/unpin/remove stay legal.
  double now = 0.0;

  for (int op = 0; op < options.ops; ++op) {
    now += rng.NextDouble();
    const uint64_t key = rng.NextBounded(96);
    const uint64_t kind =
        options.pin_heavy ? kPinHeavyMix[rng.NextBounded(16)] : rng.NextBounded(8);
    switch (kind) {
      case 0: {  // Insert.
        CacheEntry entry;
        entry.key = key;
        entry.bytes = 5 + 5 * rng.NextBounded(4);
        entry.last_access = now;
        entry.probability = rng.NextDouble();
        entry.frequency = rng.NextBool(0.3) ? rng.NextDouble() * 4.0 : 0.0;
        std::vector<CacheEntry> evicted_indexed;
        std::vector<CacheEntry> evicted_reference;
        const bool ok_indexed = indexed.Insert(entry, now, &evicted_indexed);
        const bool ok_reference = reference.Insert(entry, now, &evicted_reference);
        ASSERT_EQ(ok_indexed, ok_reference) << "insert of " << key << " at op " << op;
        ASSERT_EQ(evicted_indexed.size(), evicted_reference.size()) << "op " << op;
        for (size_t i = 0; i < evicted_indexed.size(); ++i) {
          // Victim SEQUENCE equality, not set equality: order is the tie-break record.
          ExpectEntriesEqual(evicted_indexed[i], evicted_reference[i], "evicted");
          pins.erase(evicted_indexed[i].key);
        }
        break;
      }
      case 1: {  // Touch a resident key.
        if (indexed.Contains(key)) {
          indexed.Touch(key, now);
          reference.Touch(key, now);
        }
        break;
      }
      case 2: {  // Pin.
        if (indexed.Contains(key)) {
          indexed.Pin(key);
          reference.Pin(key);
          ++pins[key];
        }
        break;
      }
      case 3: {  // Unpin.
        const auto it = pins.find(key);
        if (it != pins.end()) {
          indexed.Unpin(key);
          reference.Unpin(key);
          if (--it->second == 0) {
            pins.erase(it);
          }
        }
        break;
      }
      case 4: {  // SetProbability (also on absent keys: both must ignore).
        const double p = rng.NextDouble();
        indexed.SetProbability(key, p);
        reference.SetProbability(key, p);
        break;
      }
      case 5: {  // Remove (unpinned residents only).
        if (indexed.Contains(key) && !pins.contains(key)) {
          CacheEntry removed_indexed;
          CacheEntry removed_reference;
          ASSERT_TRUE(indexed.Remove(key, &removed_indexed));
          ASSERT_TRUE(reference.Remove(key, &removed_reference));
          ExpectEntriesEqual(removed_indexed, removed_reference, "removed");
        } else if (!indexed.Contains(key)) {
          ASSERT_FALSE(indexed.Remove(key, nullptr));
          ASSERT_FALSE(reference.Remove(key, nullptr));
        }
        break;
      }
      case 6: {  // Decay.
        const double factor = options.constant_decay ? 0.6 : 0.5 + 0.5 * rng.NextDouble();
        indexed.DecayFrequencies(factor);
        reference.DecayFrequencies(factor);
        break;
      }
      case 7: {  // KV-pressure reservation (tier knob): shrink or restore effective capacity.
        const uint64_t reserved = rng.NextBounded(kCapacity / 2 + 1);
        std::vector<CacheEntry> evicted_indexed;
        std::vector<CacheEntry> evicted_reference;
        const bool ok_indexed = indexed.SetReservation(reserved, now, &evicted_indexed);
        const bool ok_reference = reference.SetReservation(reserved, now, &evicted_reference);
        ASSERT_EQ(ok_indexed, ok_reference) << "reservation of " << reserved << " at op " << op;
        ASSERT_EQ(evicted_indexed.size(), evicted_reference.size()) << "op " << op;
        for (size_t i = 0; i < evicted_indexed.size(); ++i) {
          // Same victim sequence under pressure eviction as under insert eviction.
          ExpectEntriesEqual(evicted_indexed[i], evicted_reference[i], "reservation-evicted");
          pins.erase(evicted_indexed[i].key);
        }
        ASSERT_EQ(indexed.reserved_bytes(), reference.reserved_bytes()) << "op " << op;
        ASSERT_EQ(indexed.effective_capacity_bytes(), reference.effective_capacity_bytes())
            << "op " << op;
        if (ok_indexed) {
          // A successful reservation leaves the resident set within the shrunk budget.
          ASSERT_LE(indexed.used_bytes(), indexed.effective_capacity_bytes()) << "op " << op;
        }
        break;
      }
      case 8: {  // Pin/unpin round trips of an unchanged resident entry.
        if (indexed.Contains(key)) {
          for (int trip = 0; trip < 3; ++trip) {
            indexed.Pin(key);
            reference.Pin(key);
            indexed.Unpin(key);
            reference.Unpin(key);
          }
        }
        break;
      }
      case 9: {  // Release one held pin, chosen at random.
        if (!pins.empty()) {
          auto it = pins.begin();
          std::advance(it, static_cast<long>(rng.NextBounded(pins.size())));
          indexed.Unpin(it->first);
          reference.Unpin(it->first);
          if (--it->second == 0) {
            pins.erase(it);
          }
        }
        break;
      }
    }

    ASSERT_EQ(indexed.size(), reference.size()) << "op " << op;
    ASSERT_EQ(indexed.used_bytes(), reference.used_bytes()) << "op " << op;
    ASSERT_EQ(indexed.stats().insertions, reference.stats().insertions) << "op " << op;
    ASSERT_EQ(indexed.stats().evictions, reference.stats().evictions) << "op " << op;
    ASSERT_EQ(indexed.stats().rejected_insertions, reference.stats().rejected_insertions)
        << "op " << op;
    // Keys() order equality is the strongest oracle-fidelity assertion: the indexed cache
    // must mirror the reference hash map's *iteration order*, not just its contents.
    ASSERT_EQ(indexed.Keys(), reference.Keys()) << "op " << op;
    if (op % 64 == 0) {
      ASSERT_EQ(indexed.EvictionOrder(now), reference.EvictionOrder(now)) << "op " << op;
      for (const uint64_t resident : reference.Keys()) {
        const CacheEntry* want = reference.Find(resident);
        const ConstEntryRef got = std::as_const(indexed).Find(resident);
        ASSERT_TRUE(static_cast<bool>(got));
        ASSERT_TRUE(BitEqual(got.frequency(), want->frequency))
            << "key " << resident << " at op " << op;
        ASSERT_TRUE(BitEqual(got.probability(), want->probability));
        ASSERT_TRUE(BitEqual(got.last_access(), want->last_access));
        ASSERT_EQ(got.bytes(), want->bytes);
        ASSERT_EQ(got.pin_count(), want->pin_count);
      }
    }
  }
  if (stats_out != nullptr) {
    *stats_out = indexed.index_stats();
  }
}

class CachePropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(CachePropertyTest, IndexedMatchesReferenceUnderConstantDecay) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam());
  CacheIndexStats stats;
  RunStream(std::get<0>(GetParam()), options, &stats);
  // Steady-state complexity: with a constant decay factor, the only rebase is the first
  // decay call's factor adoption — decay must NOT degenerate into per-call O(n) sweeps.
  EXPECT_LE(stats.rebases, 2u);
  EXPECT_GT(stats.victim_picks, 0u);
}

TEST_P(CachePropertyTest, IndexedMatchesReferenceUnderRandomDecay) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam()) ^ 0xdecaf;
  options.constant_decay = false;
  options.ops = 2000;
  RunStream(std::get<0>(GetParam()), options);
}

TEST_P(CachePropertyTest, IndexedMatchesReferenceUnderPinHeavyStream) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam()) ^ 0x9172;
  options.pin_heavy = true;
  CacheIndexStats stats;
  RunStream(std::get<0>(GetParam()), options, &stats);
  EXPECT_GT(stats.victim_picks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, CachePropertyTest,
    ::testing::Combine(::testing::ValuesIn(kPolicies),
                       ::testing::Values(1u, 17u, 99u, 4242u)),
    [](const ::testing::TestParamInfo<CachePropertyTest::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// The long-horizon guards (epoch-log cap, underflow floor) only fire after thousands of decay
// epochs; drive them directly so the rebase path is covered under the engine's 0.6 factor.
TEST(CacheRebaseTest, LongDecayHorizonStaysExactAndRebasesSparsely) {
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy("LFU");
  ExpertCache indexed(10000, policy.get());
  ReferenceExpertCache reference(10000, policy.get());
  Rng rng(7);
  for (uint64_t key = 0; key < 32; ++key) {
    CacheEntry entry;
    entry.key = key;
    entry.bytes = 10;
    ASSERT_TRUE(indexed.Insert(entry, 0.0, nullptr));
    ASSERT_TRUE(reference.Insert(entry, 0.0, nullptr));
  }
  double now = 0.0;
  for (int epoch = 0; epoch < 6000; ++epoch) {
    now += 1.0;
    if (rng.NextBool(0.05)) {
      const uint64_t key = rng.NextBounded(32);
      indexed.Touch(key, now);
      reference.Touch(key, now);
    }
    indexed.DecayFrequencies(0.6);
    reference.DecayFrequencies(0.6);
  }
  for (uint64_t key = 0; key < 32; ++key) {
    const ConstEntryRef got = std::as_const(indexed).Find(key);
    ASSERT_TRUE(static_cast<bool>(got));
    ASSERT_TRUE(BitEqual(got.frequency(), reference.Find(key)->frequency)) << "key " << key;
  }
  ASSERT_EQ(indexed.EvictionOrder(now), reference.EvictionOrder(now));
  // 6000 epochs at factor 0.6: the product underflows past 1e-250 roughly every ~1100
  // epochs, so a handful of rebases — far from one per decay call.
  EXPECT_GE(indexed.index_stats().rebases, 1u);
  EXPECT_LE(indexed.index_stats().rebases, 16u);
  EXPECT_EQ(indexed.index_stats().decay_calls, 6000u);
}

}  // namespace
}  // namespace fmoe
