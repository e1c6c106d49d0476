#include "src/cache/expert_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/cache/reference_cache.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

CacheEntry Entry(uint64_t key, uint64_t bytes = 10) {
  CacheEntry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.prefetch_pending = false;
  return entry;
}

class ExpertCacheTest : public ::testing::Test {
 protected:
  LruEvictionPolicy lru_;
  LfuEvictionPolicy lfu_;
  PriorityLfuEvictionPolicy priority_;
};

TEST_F(ExpertCacheTest, InsertAndFind) {
  ExpertCache cache(100, &lru_);
  EXPECT_TRUE(cache.Insert(Entry(1), 0.0, nullptr));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used_bytes(), 10u);
  EXPECT_TRUE(static_cast<bool>(cache.Find(1)));
  EXPECT_FALSE(static_cast<bool>(cache.Find(2)));
}

TEST_F(ExpertCacheTest, DuplicateInsertRejected) {
  ExpertCache cache(100, &lru_);
  EXPECT_TRUE(cache.Insert(Entry(1), 0.0, nullptr));
  EXPECT_FALSE(cache.Insert(Entry(1), 0.0, nullptr));
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ExpertCacheTest, OversizedEntryRejected) {
  ExpertCache cache(100, &lru_);
  EXPECT_FALSE(cache.Insert(Entry(1, 200), 0.0, nullptr));
  EXPECT_EQ(cache.stats().rejected_insertions, 1u);
}

TEST_F(ExpertCacheTest, EvictsLruVictimWhenFull) {
  ExpertCache cache(30, &lru_);
  CacheEntry a = Entry(1);
  a.last_access = 1.0;
  CacheEntry b = Entry(2);
  b.last_access = 5.0;
  CacheEntry c = Entry(3);
  c.last_access = 3.0;
  cache.Insert(a, 1.0, nullptr);
  cache.Insert(b, 5.0, nullptr);
  cache.Insert(c, 5.5, nullptr);
  std::vector<CacheEntry> evicted;
  EXPECT_TRUE(cache.Insert(Entry(4), 6.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1u);  // Oldest access evicted.
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(4));
}

TEST_F(ExpertCacheTest, EvictsMultipleVictimsForLargeEntry) {
  ExpertCache cache(30, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Insert(Entry(3), 2.0, nullptr);
  std::vector<CacheEntry> evicted;
  EXPECT_TRUE(cache.Insert(Entry(4, 25), 3.0, &evicted));
  // 25 bytes into a 30-byte cache holding 3x10: all three victims must go.
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(cache.used_bytes(), 25u);
}

TEST_F(ExpertCacheTest, PinnedEntriesAreNotEvicted) {
  ExpertCache cache(20, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Pin(1);
  std::vector<CacheEntry> evicted;
  EXPECT_TRUE(cache.Insert(Entry(3), 2.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);  // Key 1 was older but pinned.
  cache.Unpin(1);
}

TEST_F(ExpertCacheTest, InsertFailsAndRollsBackWhenEverythingPinned) {
  ExpertCache cache(20, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Pin(1);
  cache.Pin(2);
  std::vector<CacheEntry> evicted;
  EXPECT_FALSE(cache.Insert(Entry(3), 2.0, &evicted));
  // Nothing changed: both pinned entries still resident, no phantom eviction.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_EQ(cache.used_bytes(), 20u);
  EXPECT_EQ(cache.stats().rejected_insertions, 1u);
}

TEST_F(ExpertCacheTest, RollbackRestoresVictimsWhenInsertUltimatelyFails) {
  ExpertCache cache(30, &lru_);
  CacheEntry unpinned = Entry(1);
  unpinned.last_access = 0.0;
  cache.Insert(unpinned, 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Insert(Entry(3), 2.0, nullptr);
  cache.Pin(2);
  cache.Pin(3);
  // Inserting a 25-byte entry requires evicting 2 victims but only one is unpinned.
  std::vector<CacheEntry> evicted;
  EXPECT_FALSE(cache.Insert(Entry(4, 25), 3.0, &evicted));
  EXPECT_TRUE(cache.Contains(1));  // Rejected up front: the unpinned entry was never evicted.
  EXPECT_EQ(cache.used_bytes(), 30u);
}

// A rejected insert must leave the cache exactly as it was: residents, their rank order,
// the eviction order (ties included), byte accounting, and every stat but the rejection count.
TEST_F(ExpertCacheTest, RejectedInsertChangesNoState) {
  for (const EvictionPolicy* policy :
       {static_cast<const EvictionPolicy*>(&lru_), static_cast<const EvictionPolicy*>(&lfu_),
        static_cast<const EvictionPolicy*>(&priority_)}) {
    for (uint64_t n = 3; n <= 40; ++n) {
      ExpertCache cache(10 * n, policy);
      for (uint64_t key = 1; key <= n; ++key) {
        CacheEntry entry = Entry(key);
        entry.last_access = static_cast<double>(key % 5);
        entry.probability = 0.1 * static_cast<double>(key % 3);
        ASSERT_TRUE(cache.Insert(entry, entry.last_access, nullptr));
      }
      for (uint64_t key = 3; key <= n; ++key) {
        cache.Pin(key);  // Only keys 1 and 2 stay evictable.
      }
      const std::vector<uint64_t> keys = cache.Keys();
      const std::vector<uint64_t> order = cache.EvictionOrder(10.0);
      const CacheStats stats = cache.stats();
      std::vector<CacheEntry> evicted;
      EXPECT_FALSE(cache.Insert(Entry(1000, 30), 10.0, &evicted));  // Needs three slots.
      EXPECT_EQ(cache.Keys(), keys) << policy->name() << " n=" << n;
      EXPECT_EQ(cache.EvictionOrder(10.0), order) << policy->name() << " n=" << n;
      EXPECT_EQ(cache.used_bytes(), 10 * n);
      EXPECT_TRUE(evicted.empty());
      EXPECT_EQ(cache.stats().insertions, stats.insertions);
      EXPECT_EQ(cache.stats().evictions, stats.evictions);
      EXPECT_EQ(cache.stats().rejected_insertions, stats.rejected_insertions + 1);
    }
  }
}

TEST_F(ExpertCacheTest, RemoveReturnsEntry) {
  ExpertCache cache(100, &lru_);
  CacheEntry entry = Entry(5);
  entry.probability = 0.7;
  cache.Insert(entry, 0.0, nullptr);
  CacheEntry removed;
  EXPECT_TRUE(cache.Remove(5, &removed));
  EXPECT_DOUBLE_EQ(removed.probability, 0.7);
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.Remove(5, nullptr));
}

TEST_F(ExpertCacheTest, TouchBumpsFrequencyAndRecency) {
  ExpertCache cache(100, &lfu_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Touch(1, 3.0);
  cache.Touch(1, 4.0);
  const ConstEntryRef entry = std::as_const(cache).Find(1);
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_DOUBLE_EQ(entry.frequency(), 2.0);
  EXPECT_DOUBLE_EQ(entry.last_access(), 4.0);
}

TEST_F(ExpertCacheTest, DecayFrequenciesAges) {
  ExpertCache cache(100, &lfu_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Touch(1, 1.0);
  cache.DecayFrequencies(0.5);
  EXPECT_DOUBLE_EQ(cache.Find(1).frequency(), 0.5);
}

TEST_F(ExpertCacheTest, SetProbabilityOnlyAffectsResident) {
  ExpertCache cache(100, &priority_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.SetProbability(1, 0.42);
  cache.SetProbability(2, 0.99);  // Absent: silently ignored.
  EXPECT_DOUBLE_EQ(cache.Find(1).probability(), 0.42);
}

TEST_F(ExpertCacheTest, LfuEvictsLeastFrequent) {
  ExpertCache cache(20, &lfu_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 0.0, nullptr);
  cache.Touch(1, 1.0);
  cache.Touch(1, 2.0);
  cache.Touch(2, 3.0);
  std::vector<CacheEntry> evicted;
  cache.Insert(Entry(3), 4.0, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);
}

TEST_F(ExpertCacheTest, PriorityLfuKeepsHighProbabilityExpert) {
  ExpertCache cache(20, &priority_);
  CacheEntry likely = Entry(1);
  likely.probability = 0.9;
  CacheEntry unlikely = Entry(2);
  unlikely.probability = 0.05;
  cache.Insert(likely, 0.0, nullptr);
  cache.Insert(unlikely, 0.0, nullptr);
  std::vector<CacheEntry> evicted;
  cache.Insert(Entry(3), 1.0, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);
}

TEST_F(ExpertCacheTest, EvictionOrderSortsMostEvictableFirst) {
  ExpertCache cache(100, &lru_);
  for (uint64_t key = 1; key <= 4; ++key) {
    CacheEntry entry = Entry(key);
    entry.last_access = static_cast<double>(key);
    cache.Insert(entry, entry.last_access, nullptr);
  }
  cache.Pin(2);
  const std::vector<uint64_t> order = cache.EvictionOrder(10.0);
  ASSERT_EQ(order.size(), 3u);  // Pinned entry excluded.
  EXPECT_EQ(order[0], 1u);      // Oldest first.
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 4u);
  cache.Unpin(2);
}

TEST_F(ExpertCacheTest, KeysReturnsAllResidents) {
  ExpertCache cache(100, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(7), 0.0, nullptr);
  auto keys = cache.Keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<uint64_t>{1, 7}));
}

TEST_F(ExpertCacheTest, StatsCountInsertionsAndEvictions) {
  ExpertCache cache(20, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Insert(Entry(3), 2.0, nullptr);  // Evicts one.
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(ExpertCacheTest, NestedPinUnpin) {
  ExpertCache cache(10, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Pin(1);
  cache.Pin(1);
  cache.Unpin(1);
  // Still pinned once: not evictable.
  std::vector<CacheEntry> evicted;
  EXPECT_FALSE(cache.Insert(Entry(2), 1.0, &evicted));
  cache.Unpin(1);
  EXPECT_TRUE(cache.Insert(Entry(2), 2.0, &evicted));
}

TEST_F(ExpertCacheTest, PinnedBestVictimIsSkippedAndEvictedAfterUnpin) {
  ExpertCache cache(30, &lru_);
  for (uint64_t key = 1; key <= 3; ++key) {
    CacheEntry entry = Entry(key);
    entry.last_access = static_cast<double>(key);
    cache.Insert(entry, entry.last_access, nullptr);
  }
  // Key 1 is the oldest access, so its heap node sits at the best-victim position when pinned.
  cache.Pin(1);
  CacheEntry fourth = Entry(4);
  fourth.last_access = 4.0;
  std::vector<CacheEntry> evicted;
  ASSERT_TRUE(cache.Insert(fourth, 4.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);
  cache.Unpin(1);
  CacheEntry fifth = Entry(5);
  fifth.last_access = 5.0;
  ASSERT_TRUE(cache.Insert(fifth, 5.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1u);
}

// LRU entries whose last accesses are adjacent doubles have different stored scores, yet at a
// late `now` their ages round to the same value: the victim is then the first of them in rank
// order (the newest insert), which a pick must find past the entry with the oldest access.
// `roles[i]` is the index, in Keys() order, of the entry given the i-th smallest last access;
// `touched` (if >= 0) is re-accessed at `now`, leaving a fresh score among the tied ones.
uint64_t TiedLruVictim(const std::vector<size_t>& roles, int touched, uint64_t* reference_victim) {
  const LruEvictionPolicy lru;
  std::vector<uint64_t> order;
  {
    ExpertCache probe(1000, &lru);
    for (uint64_t key = 1; key <= roles.size(); ++key) {
      probe.Insert(Entry(key), 0.0, nullptr);
    }
    order = probe.Keys();
  }
  // Keys() lists the newest insert first.
  std::vector<uint64_t> newest_first(roles.size());
  for (size_t i = 0; i < roles.size(); ++i) {
    newest_first[i] = roles.size() - i;
  }
  EXPECT_EQ(order, newest_first);
  std::vector<double> access(roles.size());
  double t = 0.1;
  for (size_t i = 0; i < roles.size(); ++i) {
    access[roles[i]] = t;
    t = std::nextafter(t, 1.0);
  }
  const double now = 1e6;
  ExpertCache cache(10 * roles.size(), &lru);
  ReferenceExpertCache reference(10 * roles.size(), &lru);
  for (uint64_t key = 1; key <= roles.size(); ++key) {
    const size_t rank = static_cast<size_t>(
        std::find(order.begin(), order.end(), key) - order.begin());
    CacheEntry entry = Entry(key);
    entry.last_access = access[rank];
    cache.Insert(entry, entry.last_access, nullptr);
    reference.Insert(entry, entry.last_access, nullptr);
  }
  if (touched >= 0) {
    cache.Touch(order[static_cast<size_t>(touched)], now);
    reference.Touch(order[static_cast<size_t>(touched)], now);
  }
  std::vector<CacheEntry> evicted;
  std::vector<CacheEntry> reference_evicted;
  cache.Insert(Entry(100), now, &evicted);
  reference.Insert(Entry(100), now, &reference_evicted);
  *reference_victim = reference_evicted.at(0).key;
  return evicted.at(0).key;
}

TEST_F(ExpertCacheTest, EqualScoreBelowTheTopWinsOnIterationOrder) {
  // The top (oldest access) is last in rank order; the runner-up ties it on score.
  uint64_t want = 0;
  EXPECT_EQ(TiedLruVictim({1, 0}, -1, &want), want);
  // A re-accessed entry sits between the top and the tied entry in rank order.
  EXPECT_EQ(TiedLruVictim({2, 1, 0}, 1, &want), want);
  EXPECT_EQ(TiedLruVictim({3, 1, 2, 0}, 1, &want), want);
}

// EvictionOrder promises "most evictable first", so its front must be the next victim, also
// when scores tie: the LFU/PriorityLFU sub-floor plateau, or LRU entries touched at the same
// instant. Equal scores must come out newest insert first, the order PickVictim breaks ties by,
// not by key.
TEST_F(ExpertCacheTest, EvictionOrderFrontIsTheNextVictimUnderTies) {
  const EvictionPolicy* policies[] = {&lru_, &lfu_, &priority_};
  for (const EvictionPolicy* policy : policies) {
    ExpertCache cache(10 * 24, policy);
    ReferenceExpertCache reference(10 * 24, policy);
    Rng rng(11);
    double now = 1.0;
    int checked = 0;
    for (int op = 0; op < 600; ++op) {
      if (rng.NextBool(0.2)) {
        now += 1.0;  // Runs of operations share one instant, so LRU ages tie.
      }
      const uint64_t kind = rng.NextBounded(4);
      if (kind == 0 && cache.size() > 0) {
        const std::vector<uint64_t> keys = cache.Keys();
        const uint64_t key = keys[rng.NextBounded(keys.size())];
        cache.Touch(key, now);
        reference.Touch(key, now);
      } else if (kind == 1) {
        cache.DecayFrequencies(0.1);  // One decay puts a touched entry back on the plateau.
        reference.DecayFrequencies(0.1);
      } else {
        const uint64_t key = rng.NextBounded(96);
        if (cache.Contains(key)) {
          continue;
        }
        CacheEntry entry = Entry(key);
        entry.last_access = now;
        entry.probability = 0.5;  // One probability: PriorityLFU ties exactly on the plateau.
        const std::vector<uint64_t> order = cache.EvictionOrder(now);
        ASSERT_EQ(order, reference.EvictionOrder(now)) << policy->name() << " op " << op;
        std::vector<CacheEntry> evicted;
        ASSERT_TRUE(cache.Insert(entry, now, &evicted));
        ASSERT_TRUE(reference.Insert(entry, now, nullptr));
        if (!evicted.empty()) {
          ASSERT_EQ(evicted.front().key, order.front()) << policy->name() << " op " << op;
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 100) << policy->name();
  }
}

// Equal eviction scores go to the newest insert, under every policy: entries inserted with
// one last access, no hits and one probability tie exactly, and a pick takes them in reverse
// insertion order. The keys are spread so that many share a hash bucket in any small table.
TEST_F(ExpertCacheTest, EqualScoresEvictNewestInsertFirst) {
  for (const EvictionPolicy* policy :
       {static_cast<const EvictionPolicy*>(&lru_), static_cast<const EvictionPolicy*>(&lfu_),
        static_cast<const EvictionPolicy*>(&priority_)}) {
    constexpr uint64_t kCount = 48;
    ExpertCache cache(10 * kCount, policy);
    ReferenceExpertCache reference(10 * kCount, policy);
    std::vector<uint64_t> inserted;
    for (uint64_t i = 0; i < kCount; ++i) {
      CacheEntry entry = Entry(7 + 13 * ((i * 29) % kCount));
      entry.last_access = 1.0;
      entry.probability = 0.25;
      ASSERT_TRUE(cache.Insert(entry, 1.0, nullptr));
      ASSERT_TRUE(reference.Insert(entry, 1.0, nullptr));
      inserted.push_back(entry.key);
    }
    const std::vector<uint64_t> newest_first(inserted.rbegin(), inserted.rend());
    EXPECT_EQ(cache.Keys(), newest_first) << policy->name();
    EXPECT_EQ(cache.EvictionOrder(2.0), newest_first) << policy->name();
    EXPECT_EQ(reference.Keys(), newest_first) << policy->name();
    EXPECT_EQ(reference.EvictionOrder(2.0), newest_first) << policy->name();
    // One entry the size of the whole cache evicts every resident, in pick order.
    std::vector<CacheEntry> evicted;
    ASSERT_TRUE(cache.Insert(Entry(1, 10 * kCount), 2.0, &evicted));
    std::vector<uint64_t> victims;
    for (const CacheEntry& victim : evicted) {
      victims.push_back(victim.key);
    }
    EXPECT_EQ(victims, newest_first) << policy->name();
  }
}

// The tie order is a function of the residents and their insertion order alone: a cache that
// first churned hundreds of other keys through it (growing its key table) must order the same
// residents exactly as a fresh cache does.
TEST_F(ExpertCacheTest, TieOrderIgnoresChurnHistory) {
  for (const EvictionPolicy* policy :
       {static_cast<const EvictionPolicy*>(&lru_), static_cast<const EvictionPolicy*>(&lfu_),
        static_cast<const EvictionPolicy*>(&priority_)}) {
    ExpertCache fresh(10 * 64, policy);
    ExpertCache churned(10 * 64, policy);
    ReferenceExpertCache reference_churned(10 * 64, policy);
    for (uint64_t key = 100000; key < 100512; ++key) {
      ASSERT_TRUE(churned.Insert(Entry(key, 1), 0.0, nullptr));
      ASSERT_TRUE(reference_churned.Insert(Entry(key, 1), 0.0, nullptr));
    }
    for (uint64_t key = 100000; key < 100512; ++key) {
      ASSERT_TRUE(churned.Remove(key, nullptr));
      ASSERT_TRUE(reference_churned.Remove(key, nullptr));
    }
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      uint64_t key = 0;
      do {
        key = rng.NextBounded(1u << 20);
      } while (fresh.Contains(key));
      CacheEntry entry = Entry(key);
      entry.last_access = static_cast<double>(i % 3);  // Three tied groups per policy...
      entry.frequency = static_cast<double>(i % 2);    // ...crossed with hit counts.
      entry.probability = 0.5;
      ASSERT_TRUE(fresh.Insert(entry, entry.last_access, nullptr));
      ASSERT_TRUE(churned.Insert(entry, entry.last_access, nullptr));
      ASSERT_TRUE(reference_churned.Insert(entry, entry.last_access, nullptr));
    }
    EXPECT_EQ(churned.Keys(), fresh.Keys()) << policy->name();
    EXPECT_EQ(churned.EvictionOrder(5.0), fresh.EvictionOrder(5.0)) << policy->name();
    EXPECT_EQ(reference_churned.Keys(), fresh.Keys()) << policy->name();
    EXPECT_EQ(reference_churned.EvictionOrder(5.0), fresh.EvictionOrder(5.0)) << policy->name();
  }
}

}  // namespace
}  // namespace fmoe
