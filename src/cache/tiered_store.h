// Three-tier expert storage: GPU cache ↔ capacity-bounded host-RAM pool ↔ NVMe.
//
// The paper treats offloaded experts as living in one flat host pool behind the PCIe link.
// This store generalizes that world to a hierarchy: the GPU tier stays the existing slot-based
// ExpertCache (bit-for-bit untouched), the host tier is a second ExpertCache with its own
// eviction policy holding staged/demoted expert copies, and NVMe is the infinite backing tier
// where every expert's master copy always lives. Each inter-tier hop runs on its own link:
// host↔GPU on the per-device PCIe link the engine already owns, NVMe↔host (or NVMe→GPU on the
// explicit direct path) on the store's NVMe link.
//
// The store is the one owner of a GPU fill's route. The engine hands it each fill together
// with the key's device link, and the store does the link work: a fill whose bytes are
// host-side is enqueued on the device link, a fill that needs NVMe→host staging first is
// chained behind that staging (the store enqueues the host→GPU hop once the staging starts),
// and a fill on the explicit direct path runs on the NVMe link. The engine keeps only the GPU
// entry's state; cancelling, promoting and checking a fill go through the store again.
//
// Movement rules (DESIGN.md §5h):
//   * promote  NVMe→host: speculative staging on map-store candidate scoring (StageToHost) or
//     as the upstream hop of a chained GPU fill (StartFill).
//   * promote  host→GPU: StartFill (prefetch), PromoteFill (a queued fill the gate wants now)
//     and DemandFill (a miss with no GPU entry), each on the caller's device link.
//   * demote   GPU→host: eviction victims with real resident data re-home in the host pool
//     (DemoteGpuVictim). The device→host writeback direction is modeled free: the PCIe link
//     models the host→device direction and the reverse lane of the full-duplex link is idle.
//   * spill    host→NVMe: host-pool evictions under pressure simply drop the copy — NVMe
//     always holds the master, so a clean spill costs no transfer.
//
// With `nvme_backing == false` (the default TierConfig) the store is disabled and answers as
// the paper's infinite host home: StartFill is EnqueuePrefetchAfter(now, tag, bytes, now),
// CancelFill is CancelQueuedPrefetch(tag) and DemandFill is DemandLoadAfter(now, now, bytes),
// all on the device link; the direct path is off, staging and demotion do nothing, and
// Tick / DecayHostFrequencies touch only an idle NVMe link and an empty pool. The engine calls
// the store the same way in both cases.
#ifndef FMOE_SRC_CACHE_TIERED_STORE_H_
#define FMOE_SRC_CACHE_TIERED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/expert_cache.h"
#include "src/memsim/link.h"

namespace fmoe {

class TraceRecorder;

struct TierConfig {
  // Master switch: experts' off-GPU home is NVMe instead of an infinite host pool. False
  // makes the NVMe-side knobs below (host pool, NVMe link, direct path, host policy) inert;
  // kv_bytes_per_token still applies, since KV pressure shrinks the GPU budget either way.
  bool nvme_backing = false;
  // Host-RAM staging pool budget. 0 with nvme_backing gives a two-tier GPU↔NVMe hierarchy
  // (the bench baseline); > 0 inserts the host tier in between.
  uint64_t host_capacity_bytes = 0;
  // NVMe link model (PCIe 4.0 x4 consumer drive ballpark; ~9× slower than the GPU link).
  LinkConfig nvme_link{3.5e9, 80e-6};
  // Explicitly configured NVMe→GPU teleport path. Off by default: without it every byte
  // reaching the GPU must pass through host staging (the tier property tests pin this).
  // Needs an NVMe tier: ignored unless nvme_backing is set.
  bool allow_direct_nvme_gpu = false;
  // Eviction policy of the host pool (LRU / LFU / fMoE-PriorityLFU).
  std::string host_policy = "LRU";
  // KV-cache pressure: bytes of GPU memory reserved per in-flight token, shrinking the
  // effective GPU expert budget as sequence length grows (paper Table 1).
  double kv_bytes_per_token = 0.0;

  bool enabled() const { return nvme_backing; }
};

struct TierStats {
  uint64_t host_hits = 0;            // Demand fills served from a host-side copy.
  uint64_t nvme_hits = 0;            // Demand fills that had to read NVMe.
  uint64_t gpu_fills_from_host = 0;  // Prefetch hops sourced from a ready host copy.
  uint64_t gpu_fills_chained = 0;    // Prefetch hops chained behind NVMe→host staging.
  uint64_t direct_loads = 0;         // Transfers on the explicit NVMe→GPU direct path.
  uint64_t stages_issued = 0;        // NVMe→host staging transfers enqueued.
  uint64_t stages_landed = 0;        // Stagings whose NVMe transfer started (completion known).
  uint64_t stage_promotions = 0;     // Queued stagings promoted to NVMe demand loads.
  uint64_t demotions_to_host = 0;    // GPU victims re-homed in the host pool.
  uint64_t demotions_to_nvme = 0;    // GPU victims dropped straight to NVMe (no host room).
  uint64_t host_spills = 0;          // Host victims spilled to NVMe under pressure.
};

class TieredExpertStore {
 public:
  enum class Tier { kHost, kNvme };

  // `on_direct_scheduled(tag, completion)` reports a direct-path GPU fill whose NVMe→GPU
  // transfer started — the counterpart of the device links' completion callbacks.
  using TransferScheduledHook = std::function<void(uint64_t tag, double completion)>;

  TieredExpertStore(uint64_t gpu_capacity_bytes, const EvictionPolicy* gpu_policy,
                    const TierConfig& config);

  ExpertCache& gpu() { return gpu_; }
  const ExpertCache& gpu() const { return gpu_; }
  const ExpertCache& host() const { return host_; }
  PcieLink& nvme_link() { return nvme_link_; }
  const PcieLink& nvme_link() const { return nvme_link_; }
  bool enabled() const { return config_.enabled(); }
  const TierConfig& config() const { return config_; }
  const TierStats& stats() const { return stats_; }
  size_t pending_stage_count() const { return stage_by_tag_.size(); }

  void set_direct_scheduled_hook(TransferScheduledHook hook) { direct_hook_ = std::move(hook); }

  // Attaches a trace recorder (pure observer). Tier movements become instants on
  // `host_track`; the NVMe link's transfers go on `nvme_track`. The host ExpertCache itself
  // is deliberately NOT traced: its evictions are spills of copies whose GPU fate is already
  // tracked, and feeding them into the recorder's evicted-before-use machinery would corrupt
  // demand-stall attribution.
  void set_trace(TraceRecorder* trace, int host_track, int nvme_track);

  bool HostResident(uint64_t key) const { return host_.Contains(key); }

  // --- GPU fills. `tag` is the caller's transfer tag of the pending GPU entry for `key`;
  // `link` is the key's device link. Every call takes the same `now` the caller's clock reads.

  // Starts a prefetch fill. A ready host copy: the hop is enqueued on `link`, starting no
  // earlier than the copy lands. A staging in flight (or none and no direct path): the fill is
  // chained behind that staging (a new one is issued, through a transient bounce buffer when
  // the pool cannot hold the copy, so a fill never fails) and its hop is enqueued on `link`
  // when the staging starts. The direct path: the fill runs on the NVMe link and reports
  // through the direct-scheduled hook.
  void StartFill(uint64_t key, uint64_t tag, uint64_t bytes, double now, double probability,
                 PcieLink& link);

  // Cancels a fill whose transfer has not started (its GPU entry was evicted). A chained
  // fill's staging continues and lands as a plain host copy.
  void CancelFill(uint64_t tag, PcieLink& link);

  // Promotes a fill whose transfer has not started to a demand load (the gate wants the
  // expert now) and returns its ready time; `*source` is set to kNvme when the bytes come
  // from NVMe (a chained fill's promoted staging or the direct path) and left as is when they
  // come from a host copy.
  double PromoteFill(uint64_t key, uint64_t tag, uint64_t bytes, double now, PcieLink& link,
                     Tier* source);

  // Demand load of a key with no GPU entry; returns its ready time and the serving tier.
  double DemandFill(uint64_t key, uint64_t bytes, double now, PcieLink& link, Tier* source);

  // Speculative NVMe→host staging (map-store candidate scoring, no GPU hop attached).
  // Returns the stage tag, or 0 when nothing was issued (already host-side, no host pool, or
  // the pool cannot take the copy).
  uint64_t StageToHost(uint64_t key, uint64_t bytes, double now, double probability);

  // --- Demotion. ---
  // Re-homes a GPU eviction victim carrying real resident data (caller filters out pending
  // prefetch victims, which have no bytes to save).
  void DemoteGpuVictim(const CacheEntry& victim, double now);

  // Ages host-pool hit frequencies (mirrors the engine's per-iteration GPU cache decay).
  void DecayHostFrequencies(double factor) { host_.DecayFrequencies(factor); }

  // Advances the NVMe link, landing staged transfers and enqueueing their chained hops.
  void Tick(double now);

  // Cross-checks stage and fill bookkeeping against host-pool and GPU-cache state
  // (fuzz/property tests).
  bool BookkeepingConsistent() const;

 private:
  struct StageInfo {
    uint64_t key = 0;
    bool host_backed = false;  // False: transient bounce buffer, no host pool entry.
    uint64_t chained_tag = 0;  // GPU fill whose hop waits for this staging; 0 = none.
  };
  // A GPU fill whose transfer is not yet on its device link: chained behind a staging, or on
  // the direct path (`link == nullptr`, the transfer is on the NVMe link). A fill chained to a
  // staging that started inside the call that issued it (an idle NVMe link) is never hopped;
  // it stays here until PromoteFill or CancelFill.
  struct PendingFill {
    uint64_t key = 0;
    uint64_t bytes = 0;
    PcieLink* link = nullptr;
  };

  // Makes `key`'s bytes available host-side and returns the earliest instant the host→GPU
  // hop may start. Ready host copy: returns immediately (host hit). Queued staging: promoted
  // to an NVMe demand load. Absent: NVMe demand load through a host bounce buffer (a host
  // pool entry is kept when it fits). A disabled store returns `now` with source kHost.
  double EnsureHostSide(uint64_t key, uint64_t bytes, double now, Tier* source);
  // Demand load over the explicit NVMe→GPU direct path; returns the completion time.
  double DirectDemand(uint64_t key, uint64_t bytes, double now);
  uint64_t StageInternal(uint64_t key, uint64_t bytes, double now, double probability,
                         bool require_host_backed);
  void OnNvmeScheduled(uint64_t tag, double completion);
  void EraseStage(uint64_t tag, uint64_t key);
  void EraseFill(std::unordered_map<uint64_t, PendingFill>::iterator it);
  void NoteHostSpills(double now);
  void TraceMove(const char* name, uint64_t key, uint64_t bytes, double now);
  void TraceHostOccupancy(double now);

  TierConfig config_;
  std::unique_ptr<EvictionPolicy> host_policy_;
  ExpertCache gpu_;
  ExpertCache host_;
  PcieLink nvme_link_;
  TierStats stats_;
  TransferScheduledHook direct_hook_;
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int host_track_ = 0;
  int nvme_track_ = 0;
  // The caller's clock at the latest NVMe-link call: a chained hop is enqueued at this
  // instant when its staging starts inside that call.
  double now_ = 0.0;

  uint64_t next_stage_tag_ = 1;
  std::unordered_map<uint64_t, StageInfo> stage_by_tag_;
  std::unordered_map<uint64_t, uint64_t> stage_tag_by_key_;
  std::unordered_map<uint64_t, PendingFill> fill_by_tag_;  // Keyed by the GPU transfer tag.
  std::vector<CacheEntry> host_victims_scratch_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_TIERED_STORE_H_
