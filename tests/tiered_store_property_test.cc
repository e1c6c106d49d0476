// Property tests for the three-tier expert store (DESIGN.md §5h) under fuzzed schedules.
//
// A driver plays the engine's role against a TieredExpertStore: it owns a real GPU PcieLink
// (attached to the store), inserts pending GPU entries in the store's own gpu() cache and picks
// their tags, and runs random interleavings of speculative staging, prefetch fills, demand
// accesses (promoting queued fills, demand-filling absent keys), GPU evictions, victim
// demotion, frequency decay, and link ticks. The store lands, cancels and promotes the fills.
// After every operation the invariants that define tier correctness must hold:
//
//   * Consistent tier bookkeeping — the stage map and the per-key stage-tag column are mutual
//     inverses, host-backed staging entries stay pending+pinned on their tag, transient
//     stagings own no host entry, every fill record names a pending GPU entry carrying its tag
//     and every pending GPU entry with a tag has a record
//     (TieredExpertStore::BookkeepingConsistent); host occupancy never exceeds capacity.
//   * Fill conservation — every fill the driver started is still open (a store record),
//     started on a link (a GPU-link prefetch, or an NVMe-link prefetch that is not a landed
//     staging), cancelled or promoted. A transfer that started for a cancelled or promoted
//     fill breaks the count.
//   * No NVMe→GPU teleport — with allow_direct_nvme_gpu off, the NVMe link carries only
//     stagings and every byte reaching the GPU crosses the GPU link: each demand access adds
//     one GPU-link demand load, no fill starts on the NVMe link, and at the end every fill has
//     crossed the GPU link (hop or promotion) or was cancelled.
//   * Queue/stage agreement — without the direct path, every queued NVMe transfer IS a
//     pending staging and vice versa (pending_stage_count == queued_prefetch_count).
//   * Transfer accounting — after a final flush, every issued staging either landed or was
//     promoted (stages_landed == stages_issued - stage_promotions), no fill is left open, both
//     links' demand counters match an independent ledger, and the NVMe link's
//     total_busy_sec() equals started_transfers * TransferDuration(bytes).
#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/tiered_store.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

constexpr uint64_t kExpertBytes = 10;
constexpr uint64_t kGpuCapacity = 120;
constexpr uint64_t kKeySpace = 48;
// GPU transfer tags live far above the store's stage tags, so the two never meet on the NVMe
// link (a direct fill shares it with the stagings).
constexpr uint64_t kFirstGpuTag = 1ull << 32;

struct FuzzConfig {
  uint64_t host_capacity = 0;
  bool allow_direct = false;
  const char* host_policy = "LRU";
  uint64_t seed = 1;
  int ops = 3000;
};

// Independent transfer ledger the links' own accounting must reconcile against.
struct Ledger {
  uint64_t fills_started = 0;
  uint64_t cancelled = 0;
  uint64_t promoted = 0;
  uint64_t demand_fills = 0;
  uint64_t gpu_demands_expected = 0;  // Demand accesses whose bytes cross the GPU link.
  uint64_t nvme_demands = 0;          // Demand accesses served from NVMe.
};

// The engine's side of the contract, over the store's own GPU cache: it inserts each pending
// GPU entry and picks its fill's tag; everything else about the fill is the store's.
class EngineDriver {
 public:
  EngineDriver(TieredExpertStore& store, bool allow_direct)
      : store_(store), allow_direct_(allow_direct), gpu_link_(LinkConfig{}) {
    store_.AttachDeviceLink(gpu_link_);
  }

  const Ledger& ledger() const { return ledger_; }
  const PcieLink& gpu_link() const { return gpu_link_; }

  // Fills whose transfer started: every GPU-link prefetch is a fill's hop, and every NVMe-link
  // prefetch that is not a landed staging is a direct fill.
  uint64_t direct_starts() const {
    return store_.nvme_link().prefetch_count() - store_.stats().stages_landed;
  }
  uint64_t started_fills() const { return gpu_link_.prefetch_count() + direct_starts(); }

  void Tick(double now) {
    gpu_link_.Tick(now);
    store_.Tick(now);
  }

  void Prefetch(uint64_t key, double now, double probability) {
    if (store_.gpu().Contains(key)) {
      return;
    }
    CacheEntry entry;
    entry.key = key;
    entry.bytes = kExpertBytes;
    entry.ready_at = 1e300;
    entry.prefetch_pending = true;
    entry.probability = probability;
    entry.last_access = now;
    if (!Insert(entry, now)) {
      return;
    }
    ++ledger_.fills_started;
    store_.StartFill(key, next_tag_++, now, probability, gpu_link_);
  }

  // The gate wants `key` now: promote a queued fill, demand-fill an absent key.
  void Access(uint64_t key, double now) {
    Tick(now);
    const ConstEntryRef entry = std::as_const(store_).gpu().Find(key);
    if (entry && !entry.prefetch_pending()) {
      return;  // Resident (possibly still in flight): nothing to move.
    }
    const uint64_t gpu_demands_before = gpu_link_.demand_load_count();
    TieredExpertStore::Tier source = TieredExpertStore::Tier::kHost;
    double ready = 0.0;
    if (entry) {
      ready = store_.PromoteFill(key, now, &source);
      const ConstEntryRef landed = std::as_const(store_).gpu().Find(key);
      EXPECT_TRUE(!landed.prefetch_pending() && landed.transfer_tag() == 0 &&
                  landed.ready_at() == ready);
      ++ledger_.promoted;
    } else {
      ready = store_.DemandFill(key, kExpertBytes, now, gpu_link_, &source);
      ++ledger_.demand_fills;
      CacheEntry fresh;
      fresh.key = key;
      fresh.bytes = kExpertBytes;
      fresh.ready_at = ready;
      fresh.prefetch_pending = false;
      fresh.last_access = now;
      Insert(fresh, now);
    }
    EXPECT_GE(ready, now);
    const bool crossed_gpu_link = gpu_link_.demand_load_count() == gpu_demands_before + 1;
    // The no-teleport property: only a configured direct path may skip the GPU link.
    EXPECT_TRUE(crossed_gpu_link || allow_direct_)
        << "NVMe->GPU teleport without host staging at t=" << now;
    if (!crossed_gpu_link) {
      EXPECT_EQ(gpu_link_.demand_load_count(), gpu_demands_before);
      EXPECT_EQ(source, TieredExpertStore::Tier::kNvme);
    }
    ledger_.gpu_demands_expected += crossed_gpu_link ? 1 : 0;
    ledger_.nvme_demands += source == TieredExpertStore::Tier::kNvme ? 1 : 0;
  }

  void Evict(uint64_t key, double now) {
    CacheEntry removed;
    if (store_.gpu().Remove(key, &removed)) {
      ReleaseVictims({removed}, now);
    }
  }

  // Promotes every fill still waiting (chained fills whose staging never hops them included),
  // so each fill ends crossing a link or cancelled.
  void PromoteAll(double now) {
    for (const uint64_t key : store_.gpu().Keys()) {
      Access(key, now);
    }
  }

 private:
  bool Insert(const CacheEntry& entry, double now) {
    std::vector<CacheEntry> victims;
    if (!store_.gpu().Insert(entry, now, &victims)) {
      return false;
    }
    ReleaseVictims(victims, now);
    return true;
  }

  void ReleaseVictims(const std::vector<CacheEntry>& victims, double now) {
    for (const CacheEntry& victim : victims) {
      if (victim.prefetch_pending && victim.transfer_tag != 0) {
        ++ledger_.cancelled;
      }
      store_.ReleaseGpuVictim(victim, now);
    }
  }

  TieredExpertStore& store_;
  bool allow_direct_;
  PcieLink gpu_link_;
  Ledger ledger_;
  uint64_t next_tag_ = kFirstGpuTag;
};

void RunSchedule(const FuzzConfig& fuzz) {
  TierConfig config;
  config.nvme_backing = true;
  config.host_capacity_bytes = fuzz.host_capacity;
  config.allow_direct_nvme_gpu = fuzz.allow_direct;
  config.host_policy = fuzz.host_policy;
  TieredExpertStore store(kGpuCapacity, EvictionRule::kPriorityLfu, config);
  EngineDriver driver(store, fuzz.allow_direct);

  Rng rng(fuzz.seed);
  double now = 0.0;
  for (int op = 0; op < fuzz.ops; ++op) {
    now += rng.NextDouble() * 1e-4;
    const uint64_t key = rng.NextBounded(kKeySpace);
    switch (rng.NextBounded(8)) {
      case 0: {  // Speculative NVMe→host staging (map-store candidate scoring).
        store.StageToHost(key, kExpertBytes, now, rng.NextDouble());
        break;
      }
      case 1:
      case 2: {  // Prefetch fill.
        const TierStats before = store.stats();
        driver.Prefetch(key, now, rng.NextDouble());
        if (store.stats().gpu_fills_from_host > before.gpu_fills_from_host) {
          ASSERT_TRUE(store.HostResident(key)) << "op " << op;
        }
        break;
      }
      case 3: {  // The gate asks for the key.
        driver.Access(key, now);
        break;
      }
      case 4: {  // GPU eviction (pending fills cancel, resident copies demote).
        driver.Evict(key, now);
        break;
      }
      case 5: {  // A resident victim of some other tier's eviction demotes toward host.
        CacheEntry victim;
        victim.key = key;
        victim.bytes = kExpertBytes;
        victim.last_access = now;
        victim.frequency = rng.NextDouble();
        victim.probability = rng.NextDouble();
        store.ReleaseGpuVictim(victim, now);
        break;
      }
      case 6: {  // Per-iteration host frequency aging.
        store.DecayHostFrequencies(0.6);
        break;
      }
      case 7: {  // Advance both links, landing stagings and starting hops.
        driver.Tick(now);
        break;
      }
    }

    ASSERT_TRUE(store.BookkeepingConsistent()) << "op " << op;
    ASSERT_LE(store.host().used_bytes(), store.host().capacity_bytes()) << "op " << op;
    const Ledger& ledger = driver.ledger();
    ASSERT_EQ(ledger.fills_started, store.pending_fill_count() + driver.started_fills() +
                                        ledger.cancelled + ledger.promoted)
        << "op " << op;
    if (!fuzz.allow_direct) {
      // Every queued NVMe transfer is a pending staging and vice versa.
      ASSERT_EQ(store.pending_stage_count(), store.nvme_link().queued_prefetch_count())
          << "op " << op;
    }
  }

  // Flush: everything still queued starts and lands; fills still waiting are promoted.
  now += 1e6;
  driver.Tick(now);
  driver.PromoteAll(now);
  driver.Tick(now);
  ASSERT_TRUE(store.BookkeepingConsistent());
  EXPECT_EQ(store.pending_fill_count(), 0u);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_EQ(store.nvme_link().queued_prefetch_count(), 0u);
  EXPECT_EQ(driver.gpu_link().queued_prefetch_count(), 0u);

  const TierStats& stats = store.stats();
  const Ledger& ledger = driver.ledger();
  // Every issued staging either landed (its NVMe transfer started) or was promoted to a
  // demand load (cancelled while queued) — no third fate. Every fill met exactly one fate.
  EXPECT_EQ(stats.stages_landed, stats.stages_issued - stats.stage_promotions);
  EXPECT_EQ(ledger.fills_started, driver.started_fills() + ledger.cancelled + ledger.promoted);
  if (!fuzz.allow_direct) {
    EXPECT_EQ(stats.direct_loads, 0u);
    EXPECT_EQ(driver.direct_starts(), 0u);
    EXPECT_EQ(ledger.gpu_demands_expected, ledger.promoted + ledger.demand_fills);
  }

  // GPU-link accounting: its demand loads are exactly the demand accesses that crossed it,
  // and every prefetch it started moved one expert.
  const PcieLink& gpu = driver.gpu_link();
  EXPECT_EQ(gpu.demand_load_count(), ledger.gpu_demands_expected);
  EXPECT_EQ(gpu.total_prefetch_bytes(), gpu.prefetch_count() * kExpertBytes);

  // NVMe-link accounting reconciles with the ledger: demand loads we triggered, prefetches
  // that actually started (cancelled ones cost nothing).
  const PcieLink& nvme = store.nvme_link();
  EXPECT_EQ(nvme.demand_load_count(), ledger.nvme_demands);
  EXPECT_EQ(nvme.total_demand_bytes(), ledger.nvme_demands * kExpertBytes);
  EXPECT_EQ(nvme.total_prefetch_bytes(), nvme.prefetch_count() * kExpertBytes);

  // Virtual-time busy accounting: every started transfer occupies the link for exactly
  // TransferDuration(bytes), so the busy ledger sums to started * duration. The link accrues
  // (completion - start) per transfer, which rounds at the start instant's magnitude, so the
  // comparison is tight-tolerance rather than bitwise.
  const uint64_t started = nvme.demand_load_count() + nvme.prefetch_count();
  const double duration = nvme.TransferDuration(kExpertBytes);
  double expected_busy = 0.0;
  for (uint64_t i = 0; i < started; ++i) {
    expected_busy += duration;
  }
  EXPECT_NEAR(nvme.total_busy_sec(), expected_busy, 1e-9);
}

class TieredStorePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, const char*, uint64_t>> {};

TEST_P(TieredStorePropertyTest, InvariantsHoldUnderFuzzedSchedules) {
  FuzzConfig fuzz;
  fuzz.host_capacity = std::get<0>(GetParam());
  fuzz.allow_direct = std::get<1>(GetParam());
  fuzz.host_policy = std::get<2>(GetParam());
  fuzz.seed = std::get<3>(GetParam());
  RunSchedule(fuzz);
}

INSTANTIATE_TEST_SUITE_P(
    Hierarchies, TieredStorePropertyTest,
    ::testing::Combine(
        // 0 = two-tier GPU↔NVMe (transient stagings only); 90 = pressured host pool (spills);
        // 480 = host pool holding the whole key space.
        ::testing::Values(0ull, 90ull, 480ull),
        ::testing::Values(false, true),
        ::testing::Values("LRU", "fMoE-PriorityLFU"),
        ::testing::Values(3u, 71u, 2026u)),
    [](const ::testing::TestParamInfo<TieredStorePropertyTest::ParamType>& info) {
      std::string name = "host" + std::to_string(std::get<0>(info.param)) +
                         (std::get<1>(info.param) ? "_direct" : "_staged") + "_" +
                         std::get<2>(info.param) + "_seed" +
                         std::to_string(std::get<3>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Deterministic single-path checks that the fuzz could in principle miss.

TierConfig ThreeTier(uint64_t host_capacity, bool allow_direct = false) {
  TierConfig config;
  config.nvme_backing = true;
  config.host_capacity_bytes = host_capacity;
  config.allow_direct_nvme_gpu = allow_direct;
  return config;
}

// Inserts the pending GPU entry a fill of `key` belongs to (StartFill stamps its tag).
void InsertPending(TieredExpertStore& store, uint64_t key, uint64_t bytes) {
  CacheEntry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.ready_at = 1e300;
  entry.prefetch_pending = true;
  ASSERT_TRUE(store.gpu().Insert(entry, 0.0, nullptr));
}

TEST(TieredStoreTest, DisabledStoreIsInert) {
  TierConfig config;  // nvme_backing defaults off.
  TieredExpertStore store(kGpuCapacity, EvictionRule::kLru, config);
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.StageToHost(1, kExpertBytes, 0.0, 0.5), 0u);
  CacheEntry victim;
  victim.key = 1;
  victim.bytes = kExpertBytes;
  store.ReleaseGpuVictim(victim, 0.0);
  EXPECT_EQ(store.stats().demotions_to_host + store.stats().demotions_to_nvme, 0u);
  EXPECT_EQ(store.host().capacity_bytes(), 0u);

  // Fills reduce to the two-tier device-link calls: enqueue at `now`, cancel, demand at `now`.
  PcieLink gpu(LinkConfig{});
  store.AttachDeviceLink(gpu);
  PcieLink reference(LinkConfig{});
  reference.DemandLoad(0.0, kExpertBytes);
  gpu.DemandLoad(0.0, kExpertBytes);  // Keep both links busy so the fills stay queued.
  InsertPending(store, 2, kExpertBytes);
  store.StartFill(2, kFirstGpuTag, 0.0, 0.5, gpu);
  EXPECT_EQ(gpu.queued_prefetch_count(), 1u);
  CacheEntry removed;
  ASSERT_TRUE(store.gpu().Remove(2, &removed));
  store.ReleaseGpuVictim(removed, 0.0);
  EXPECT_EQ(gpu.queued_prefetch_count(), 0u);
  TieredExpertStore::Tier source = TieredExpertStore::Tier::kNvme;
  EXPECT_EQ(store.DemandFill(3, kExpertBytes, 1e-6, gpu, &source),
            reference.DemandLoad(1e-6, kExpertBytes));
  EXPECT_EQ(source, TieredExpertStore::Tier::kHost);
  EXPECT_EQ(store.nvme_link().prefetch_count() + store.nvme_link().demand_load_count(), 0u);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

// The disabled store (the two-tier world of the paper's systems) owns a device-link fill from
// issue to landing: the link's start lands the GPU entry at the start plus the transfer, and
// a fill cancelled before its start (its entry was evicted) leaves no record and never runs.
TEST(TieredStoreTest, DisabledStoreLandsAndCancelsDeviceLinkFills) {
  TieredExpertStore store(kGpuCapacity, EvictionRule::kLru, TierConfig{});
  PcieLink gpu(LinkConfig{});
  store.AttachDeviceLink(gpu);
  const double busy_until = gpu.DemandLoad(0.0, kExpertBytes);  // The fills queue behind it.

  InsertPending(store, 2, kExpertBytes);
  store.StartFill(2, kFirstGpuTag, 0.0, 0.5, gpu);
  InsertPending(store, 3, kExpertBytes);
  store.StartFill(3, kFirstGpuTag + 1, 0.0, 0.5, gpu);
  ConstEntryRef entry = std::as_const(store).gpu().Find(2);
  ASSERT_TRUE(entry && entry.prefetch_pending());
  EXPECT_EQ(entry.transfer_tag(), kFirstGpuTag);
  EXPECT_EQ(store.pending_fill_count(), 2u);
  EXPECT_EQ(gpu.queued_prefetch_count(), 2u);
  EXPECT_TRUE(store.BookkeepingConsistent());

  CacheEntry removed;
  ASSERT_TRUE(store.gpu().Remove(3, &removed));
  store.ReleaseGpuVictim(removed, 0.0);
  EXPECT_EQ(store.pending_fill_count(), 1u);
  EXPECT_EQ(gpu.queued_prefetch_count(), 1u);
  EXPECT_TRUE(store.BookkeepingConsistent());

  gpu.Tick(1.0);  // The link frees at busy_until and starts the remaining fill.
  entry = std::as_const(store).gpu().Find(2);
  ASSERT_TRUE(entry);
  EXPECT_FALSE(entry.prefetch_pending());
  EXPECT_EQ(entry.transfer_tag(), 0u);
  EXPECT_EQ(entry.ready_at(), busy_until + gpu.TransferDuration(kExpertBytes));
  EXPECT_EQ(store.pending_fill_count(), 0u);
  EXPECT_EQ(gpu.prefetch_count(), 1u);
  EXPECT_EQ(gpu.queued_prefetch_count(), 0u);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

TEST(TieredStoreTest, QueuedStagePromotesToDemandLoadOnce) {
  TieredExpertStore store(kGpuCapacity, EvictionRule::kLru, ThreeTier(100));
  PcieLink gpu(LinkConfig{});
  store.AttachDeviceLink(gpu);

  // Occupy the link first: an idle link starts (and thus lands) a staging immediately.
  store.nvme_link().DemandLoad(0.0, kExpertBytes);
  const uint64_t tag = store.StageToHost(7, kExpertBytes, 0.0, 0.9);
  ASSERT_NE(tag, 0u);
  EXPECT_EQ(store.pending_stage_count(), 1u);

  // Demand the key while the staging is still queued: the prefetch is cancelled, a demand
  // load runs.
  TieredExpertStore::Tier source = TieredExpertStore::Tier::kHost;
  const double ready = store.DemandFill(7, kExpertBytes, 0.0, gpu, &source);
  EXPECT_EQ(source, TieredExpertStore::Tier::kNvme);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_EQ(store.stats().stage_promotions, 1u);
  EXPECT_EQ(store.nvme_link().demand_load_count(), 2u);
  EXPECT_EQ(store.nvme_link().prefetch_count(), 0u);  // Cancelled before it started.
  EXPECT_EQ(gpu.demand_load_count(), 1u);

  // The promoted copy is now a committed host entry, and the GPU hop ran behind it.
  const ConstEntryRef copy = store.host().Find(7);
  ASSERT_TRUE(copy && !copy.prefetch_pending());
  EXPECT_EQ(ready, copy.ready_at() + gpu.TransferDuration(kExpertBytes));
  // The next fill is a host hit.
  InsertPending(store, 7, kExpertBytes);
  store.StartFill(7, kFirstGpuTag, 0.0, 0.9, gpu);
  EXPECT_EQ(store.stats().gpu_fills_from_host, 1u);
  EXPECT_EQ(store.stats().stages_issued, 1u);
  EXPECT_EQ(gpu.queued_prefetch_count(), 1u);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

TEST(TieredStoreTest, HostPoolFullOfPinnedStagesFallsBackToTransient) {
  TieredExpertStore store(kGpuCapacity, EvictionRule::kLru, ThreeTier(2 * kExpertBytes));
  PcieLink gpu(LinkConfig{});
  store.AttachDeviceLink(gpu);

  // Occupy the link so the stagings stay queued — and therefore pinned.
  store.nvme_link().DemandLoad(0.0, kExpertBytes);
  // Fill the pool with pinned (queued) stagings.
  ASSERT_NE(store.StageToHost(1, kExpertBytes, 0.0, 0.5), 0u);
  ASSERT_NE(store.StageToHost(2, kExpertBytes, 0.0, 0.5), 0u);
  // A speculative staging that cannot be host-backed is dropped...
  EXPECT_EQ(store.StageToHost(3, kExpertBytes, 0.0, 0.5), 0u);
  // ...but a GPU fill never fails: it rides a transient bounce buffer instead.
  InsertPending(store, 3, kExpertBytes);
  store.StartFill(3, kFirstGpuTag, 0.0, 0.5, gpu);
  EXPECT_EQ(store.stats().gpu_fills_chained, 1u);
  EXPECT_EQ(store.pending_stage_count(), 3u);
  EXPECT_FALSE(store.HostResident(3));
  EXPECT_TRUE(store.BookkeepingConsistent());

  // After the flush the transient staging leaves no host entry behind, and its hop crossed
  // the GPU link.
  store.Tick(1e6);
  gpu.Tick(1e6);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_FALSE(store.HostResident(3));
  EXPECT_TRUE(store.HostResident(1));
  EXPECT_TRUE(store.HostResident(2));
  EXPECT_EQ(gpu.prefetch_count(), 1u);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

// No early hop: a chained host→GPU hop never starts before its staging's completion, even
// when the GPU link is idle the moment the staging starts.
TEST(TieredStoreTest, ChainedHopNeverStartsBeforeItsStaging) {
  TieredExpertStore store(kGpuCapacity, EvictionRule::kLru, ThreeTier(480));
  PcieLink gpu(LinkConfig{});
  store.AttachDeviceLink(gpu);

  // A random NVMe backlog, then eight fills whose stagings queue behind it back to back.
  Rng rng(5);
  for (uint64_t load = 1 + rng.NextBounded(4); load > 0; --load) {
    store.nvme_link().DemandLoad(0.0, kExpertBytes * (1 + rng.NextBounded(500)));
  }
  constexpr uint64_t kKeys = 8;
  for (uint64_t key = 0; key < kKeys; ++key) {
    InsertPending(store, key, kExpertBytes);
    store.StartFill(key, kFirstGpuTag + key, 0.0, 0.5, gpu);
    const ConstEntryRef staged = store.host().Find(key);
    ASSERT_TRUE(staged && staged.prefetch_pending());  // Chained behind a queued staging.
  }
  // Fine ticks: each staging starts at some tick, with its completion still ahead.
  for (double now = 0.0; now < 0.01; now += 2e-6) {
    store.Tick(now);
    gpu.Tick(now);
  }
  for (uint64_t key = 0; key < kKeys; ++key) {
    // The host-backed staging's entry carries the staging's completion as its ready time.
    const ConstEntryRef copy = store.host().Find(key);
    ASSERT_TRUE(copy && !copy.prefetch_pending());
    // The hop started and landed the GPU entry at its completion.
    const ConstEntryRef landed = std::as_const(store).gpu().Find(key);
    ASSERT_TRUE(landed && !landed.prefetch_pending()) << "key " << key;
    const double hop_start = landed.ready_at() - gpu.TransferDuration(kExpertBytes);
    EXPECT_GE(hop_start + 1e-12, copy.ready_at()) << "key " << key;
  }
}

// Cancelling a chained fill (its GPU entry was evicted) leaves the staging to land as a
// plain host copy: no hop ever reaches the GPU link.
TEST(TieredStoreTest, CancelledChainLandsAsPlainHostCopy) {
  TieredExpertStore store(kGpuCapacity, EvictionRule::kLru, ThreeTier(100));
  PcieLink gpu(LinkConfig{});
  store.AttachDeviceLink(gpu);

  store.nvme_link().DemandLoad(0.0, kExpertBytes);  // Keep the staging queued.
  InsertPending(store, 4, kExpertBytes);
  store.StartFill(4, kFirstGpuTag, 0.0, 0.5, gpu);
  ASSERT_EQ(store.stats().gpu_fills_chained, 1u);
  ASSERT_EQ(store.pending_stage_count(), 1u);

  CacheEntry removed;
  ASSERT_TRUE(store.gpu().Remove(4, &removed));
  store.ReleaseGpuVictim(removed, 0.0);
  EXPECT_TRUE(store.BookkeepingConsistent());

  store.Tick(1.0);
  gpu.Tick(1.0);
  EXPECT_EQ(store.stats().stages_landed, 1u);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  const ConstEntryRef copy = store.host().Find(4);
  ASSERT_TRUE(copy);
  EXPECT_FALSE(copy.prefetch_pending());
  EXPECT_EQ(copy.pin_count(), 0);
  EXPECT_EQ(gpu.prefetch_count() + gpu.demand_load_count() + gpu.queued_prefetch_count(), 0u);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

// Promoting an unstarted fill of each route, on hand-built link states: the ready times are
// the link arithmetic of a demand load behind the bytes' availability.
TEST(TieredStoreTest, PromotionReadyTimesMatchHandComputedRoutes) {
  constexpr uint64_t kBytes = 3'500'000;
  constexpr double kNow = 1e-4;

  {  // Host copy: the hop is queued on the GPU link behind a copy that lands at c.
    TieredExpertStore store(kBytes * 4, EvictionRule::kLru, ThreeTier(kBytes * 4));
    PcieLink gpu(LinkConfig{});
    store.AttachDeviceLink(gpu);
    ASSERT_NE(store.StageToHost(1, kBytes, 0.0, 0.5), 0u);  // Idle link: starts at 0.
    const double c = store.nvme_link().TransferDuration(kBytes);
    InsertPending(store, 1, kBytes);
    store.StartFill(1, kFirstGpuTag, 0.0, 0.5, gpu);
    ASSERT_EQ(store.stats().gpu_fills_from_host, 1u);
    ASSERT_EQ(gpu.queued_prefetch_count(), 1u);
    TieredExpertStore::Tier source = TieredExpertStore::Tier::kHost;
    const double ready = store.PromoteFill(1, kNow, &source);
    EXPECT_EQ(ready, c + gpu.TransferDuration(kBytes));
    EXPECT_EQ(std::as_const(store).gpu().Find(1).ready_at(), ready);
    EXPECT_EQ(source, TieredExpertStore::Tier::kHost);
    EXPECT_EQ(gpu.queued_prefetch_count(), 0u);
  }
  {  // Chained: the staging is queued behind an NVMe demand load busy until d.
    TieredExpertStore store(kBytes * 4, EvictionRule::kLru, ThreeTier(kBytes * 4));
    PcieLink gpu(LinkConfig{});
    store.AttachDeviceLink(gpu);
    const double d = store.nvme_link().DemandLoad(0.0, kBytes);
    InsertPending(store, 2, kBytes);
    store.StartFill(2, kFirstGpuTag, 0.0, 0.5, gpu);
    ASSERT_EQ(store.stats().gpu_fills_chained, 1u);
    TieredExpertStore::Tier source = TieredExpertStore::Tier::kHost;
    const double ready = store.PromoteFill(2, kNow, &source);
    const double staged = d + store.nvme_link().TransferDuration(kBytes);
    EXPECT_EQ(ready, staged + gpu.TransferDuration(kBytes));
    EXPECT_EQ(source, TieredExpertStore::Tier::kNvme);
    EXPECT_EQ(store.stats().stage_promotions, 1u);
    EXPECT_EQ(store.nvme_link().prefetch_count(), 0u);
  }
  {  // Direct: the fill is queued on the NVMe link behind a demand load busy until d.
    TieredExpertStore store(kBytes * 4, EvictionRule::kLru, ThreeTier(kBytes * 4, true));
    PcieLink gpu(LinkConfig{});
    store.AttachDeviceLink(gpu);
    const double d = store.nvme_link().DemandLoad(0.0, kBytes);
    InsertPending(store, 3, kBytes);
    store.StartFill(3, kFirstGpuTag, 0.0, 0.5, gpu);
    ASSERT_EQ(store.stats().direct_loads, 1u);
    TieredExpertStore::Tier source = TieredExpertStore::Tier::kHost;
    const double ready = store.PromoteFill(3, kNow, &source);
    EXPECT_EQ(ready, d + store.nvme_link().TransferDuration(kBytes));
    EXPECT_EQ(source, TieredExpertStore::Tier::kNvme);
    EXPECT_EQ(store.nvme_link().queued_prefetch_count(), 0u);
    EXPECT_EQ(gpu.demand_load_count() + gpu.prefetch_count(), 0u);
  }
}

}  // namespace
}  // namespace fmoe
