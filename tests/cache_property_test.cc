// Differential property test: the SoA ExpertCache versus the naive linear-scan
// ReferenceExpertCache (the pre-index implementation, preserved verbatim as an executable
// specification) under seeded random operation streams.
//
// "Equal" here is deliberately strict: not just the same resident set, but the same victim
// *sequence* entry by entry (the indexed cache scans a per-slot score column with SIMD; the
// reference recomputes every score on every pick), bitwise-equal decayed frequencies, the
// same Keys() rank order (newest insert first: the order score ties break in), and the same
// EvictionOrder. Any relaxation here would let the two caches drift on golden-pinned
// tie-breaks. The stream sizes run from ~50 residents to over
// 1024, so the scan's four-lane tails and long columns are both covered.
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
  // Byte budget and key universe. Entries take 5-20 bytes (12.5 on average), so the default
  // holds ~50 residents; keys are drawn from [0, key_space).
  uint64_t capacity = 640;
  uint64_t key_space = 96;
  // Insert every key of the universe before the random stream, so a large cache starts full.
  bool fill_first = false;
  // Constant factor = the engine's steady state; random factors change it on every call.
  bool constant_decay = true;
  // Pin-heavy mix: pins are held across many evicting inserts and released in random order,
  // and resident entries are repeatedly pinned and unpinned with nothing changed in between.
  bool pin_heavy = false;
  // Tie-heavy mix: time advances only now and then (equal last_access, so equal LRU ages),
  // inserts carry zero frequency and one of two probabilities, and decays use factor 0.1,
  // which puts a touched entry back on the sub-floor plateau at once (equal LFU and
  // PriorityLFU scores).
  bool ties = false;
};

struct StreamResult {
  CacheIndexStats index_stats;
  size_t peak_residents = 0;
};

// Operation kinds of the pin-heavy mix, drawn uniformly: 5/16 inserts, 2/16 pins, 2/16
// releases of a held pin, 2/16 pin/unpin round trips, one each of the rest. Kinds 0-7 are the
// default mix's; 8 = pin/unpin round trip, 9 = release a random held pin.
constexpr uint64_t kPinHeavyMix[16] = {0, 0, 0, 0, 0, 1, 2, 2, 9, 9, 8, 8, 4, 6, 7, 5};

// Drives both caches through an identical random operation stream, asserting equivalence
// after every operation. The indexed cache's index stats and the peak resident count land in
// *result_out (ASSERT_* macros require a void return).
void RunStream(const std::string& policy_name, const StreamOptions& options,
               StreamResult* result_out = nullptr) {
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy(policy_name);
  const uint64_t capacity = options.capacity;
  ExpertCache indexed(capacity, policy.get());
  ReferenceExpertCache reference(capacity, policy.get());

  Rng rng(options.seed);
  std::map<uint64_t, int> pins;  // Local pin ledger so pin/unpin/remove stay legal.
  double now = 0.0;
  size_t peak_residents = 0;
  const auto draw_probability = [&] {
    return options.ties ? 0.25 * static_cast<double>(1 + rng.NextBounded(2)) : rng.NextDouble();
  };
  const auto insert = [&](uint64_t key, int op) {
    CacheEntry entry;
    entry.key = key;
    entry.bytes = 5 + 5 * rng.NextBounded(4);
    entry.last_access = now;
    entry.probability = draw_probability();
    if (!options.ties) {
      entry.frequency = rng.NextBool(0.3) ? rng.NextDouble() * 4.0 : 0.0;
    }
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
  };
  if (options.fill_first) {
    for (uint64_t key = 0; key < options.key_space; ++key) {
      ASSERT_NO_FATAL_FAILURE(insert(key, -1));
    }
  }

  for (int op = 0; op < options.ops; ++op) {
    if (options.ties) {
      now += rng.NextBool(0.05) ? 1.0 : 0.0;
    } else {
      now += rng.NextDouble();
    }
    const uint64_t key = rng.NextBounded(options.key_space);
    const uint64_t kind =
        options.pin_heavy ? kPinHeavyMix[rng.NextBounded(16)] : rng.NextBounded(8);
    switch (kind) {
      case 0: {  // Insert.
        ASSERT_NO_FATAL_FAILURE(insert(key, op));
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
        const double p = draw_probability();
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
        const double factor = options.ties             ? 0.1
                              : options.constant_decay ? 0.6
                                                       : 0.5 + 0.5 * rng.NextDouble();
        indexed.DecayFrequencies(factor);
        reference.DecayFrequencies(factor);
        break;
      }
      case 7: {  // KV-pressure reservation (tier knob): shrink or restore effective capacity.
        const uint64_t reserved = rng.NextBounded(capacity / 2 + 1);
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
    peak_residents = std::max(peak_residents, indexed.size());
    ASSERT_EQ(indexed.used_bytes(), reference.used_bytes()) << "op " << op;
    ASSERT_EQ(indexed.stats().insertions, reference.stats().insertions) << "op " << op;
    ASSERT_EQ(indexed.stats().evictions, reference.stats().evictions) << "op " << op;
    ASSERT_EQ(indexed.stats().rejected_insertions, reference.stats().rejected_insertions)
        << "op " << op;
    // Keys() order equality is the strongest tie-rule assertion: the indexed cache's slot
    // ranks must order the residents as the reference's per-entry ranks do, not just hold
    // the same contents.
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
  if (result_out != nullptr) {
    result_out->index_stats = indexed.index_stats();
    result_out->peak_residents = peak_residents;
  }
}

class CachePropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(CachePropertyTest, IndexedMatchesReferenceUnderConstantDecay) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam());
  StreamResult result;
  RunStream(std::get<0>(GetParam()), options, &result);
  EXPECT_GT(result.index_stats.victim_picks, 0u);
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
  StreamResult result;
  RunStream(std::get<0>(GetParam()), options, &result);
  EXPECT_GT(result.index_stats.victim_picks, 0u);
}

// Qwen's resident count at the 22% default cache (~317 experts).
TEST_P(CachePropertyTest, IndexedMatchesReferenceAtQwenScale) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam()) ^ 0x317;
  options.capacity = 4000;
  options.key_space = 480;
  options.fill_first = true;
  StreamResult result;
  RunStream(std::get<0>(GetParam()), options, &result);
  EXPECT_GE(result.peak_residents, 300u);
  EXPECT_GT(result.index_stats.victim_picks, 0u);
}

TEST_P(CachePropertyTest, IndexedMatchesReferenceAtOver1024Residents) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam()) ^ 0x1024;
  options.capacity = 14000;
  options.key_space = 1536;
  options.fill_first = true;
  StreamResult result;
  RunStream(std::get<0>(GetParam()), options, &result);
  EXPECT_GE(result.peak_residents, 1024u);
  EXPECT_GT(result.index_stats.victim_picks, 0u);
}

TEST_P(CachePropertyTest, IndexedMatchesReferenceUnderTieHeavyStream) {
  StreamOptions options;
  options.seed = std::get<1>(GetParam()) ^ 0x7135;
  options.ties = true;
  StreamResult result;
  RunStream(std::get<0>(GetParam()), options, &result);
  EXPECT_GT(result.index_stats.victim_picks, 0u);
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

// A long decay horizon: 6000 epochs at the engine's factor 0.6, with a stretch at another
// factor in the middle, drive most frequencies through the plateau and into the subnormal
// range and zero. Decay is an eager sweep in both caches, so every frequency and the whole
// eviction order must stay bitwise equal.
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
  const auto expect_equal = [&](double now, int epoch) {
    for (uint64_t key = 0; key < 32; ++key) {
      const ConstEntryRef got = std::as_const(indexed).Find(key);
      ASSERT_TRUE(static_cast<bool>(got));
      ASSERT_TRUE(BitEqual(got.frequency(), reference.Find(key)->frequency))
          << "key " << key << " at epoch " << epoch;
    }
    ASSERT_EQ(indexed.EvictionOrder(now), reference.EvictionOrder(now)) << "epoch " << epoch;
  };
  double now = 0.0;
  for (int epoch = 0; epoch < 6000; ++epoch) {
    now += 1.0;
    if (rng.NextBool(0.05)) {
      const uint64_t key = rng.NextBounded(32);
      indexed.Touch(key, now);
      reference.Touch(key, now);
    }
    const double factor = epoch >= 3000 && epoch < 3500 ? 0.9 : 0.6;
    indexed.DecayFrequencies(factor);
    reference.DecayFrequencies(factor);
    if (epoch == 2999 || epoch == 3499) {
      ASSERT_NO_FATAL_FAILURE(expect_equal(now, epoch));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_equal(now, 6000));
}

}  // namespace
}  // namespace fmoe
