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
// Movement rules (DESIGN.md §5h):
//   * promote  NVMe→host: speculative staging on map-store candidate scoring (StageToHost) or
//     as the upstream hop of a chained GPU fill (PlanGpuFill → kChained).
//   * promote  host→GPU: the engine's normal prefetch/demand machinery; the store only tells
//     it where the bytes are and from when they are available (EnsureHostSide / PlanGpuFill).
//   * demote   GPU→host: eviction victims with real resident data re-home in the host pool
//     (DemoteGpuVictim). The device→host writeback direction is modeled free: the PCIe link
//     models the host→device direction and the reverse lane of the full-duplex link is idle.
//   * spill    host→NVMe: host-pool evictions under pressure simply drop the copy — NVMe
//     always holds the master, so a clean spill costs no transfer.
//
// With `nvme_backing == false` (the default TierConfig) the store is disabled and answers as
// the paper's infinite host home: PlanGpuFill routes every fill kFromHost with earliest = now,
// EnsureHostSide reports the bytes host-side at `now`, the direct path is off, staging and
// demotion do nothing, and Tick / DecayHostFrequencies touch only an idle NVMe link and an
// empty pool. The engine calls the store the same way in both cases; on a disabled store
// those calls reduce to the two-tier GPU↔host transfers.
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
  enum class FillRoute {
    kFromHost,  // Host copy available: enqueue the GPU hop with the returned earliest start.
    kChained,   // NVMe→host staging in flight/queued: enqueue the GPU hop when it lands.
    kDirect,    // Explicit direct path: run the transfer on the NVMe link itself.
  };

  // `on_stage_scheduled(stage_tag, key, completion)` fires when an NVMe→host staging transfer
  // starts (its completion instant becomes known) — the engine uses it to launch chained
  // host→GPU hops. `on_direct_scheduled(tag, completion)` forwards NVMe-link completions for
  // tags the store does not own (the engine's direct NVMe→GPU transfers).
  using StageScheduledHook = std::function<void(uint64_t stage_tag, uint64_t key, double completion)>;
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

  void set_stage_scheduled_hook(StageScheduledHook hook) { stage_hook_ = std::move(hook); }
  void set_direct_scheduled_hook(TransferScheduledHook hook) { direct_hook_ = std::move(hook); }

  // Attaches a trace recorder (pure observer). Tier movements become instants on
  // `host_track`; the NVMe link's transfers go on `nvme_track`. The host ExpertCache itself
  // is deliberately NOT traced: its evictions are spills of copies whose GPU fate is already
  // tracked, and feeding them into the recorder's evicted-before-use machinery would corrupt
  // demand-stall attribution.
  void set_trace(TraceRecorder* trace, int host_track, int nvme_track);

  // --- Residency queries. ---
  bool HostResident(uint64_t key) const { return host_.Contains(key); }
  // True when a demand miss on `key` takes the explicit NVMe→GPU direct path: the path is
  // configured, the store has an NVMe tier, and no host copy exists.
  bool DirectDemandRoute(uint64_t key) const {
    return enabled() && config_.allow_direct_nvme_gpu && !HostResident(key);
  }
  // Earliest instant a committed host copy of `key` can feed a GPU hop: max(now, ready_at),
  // or `now` when no such copy exists (callers use this for hops already enqueued).
  double HostAvailableAt(uint64_t key, double now) const;

  // --- Demand path. ---
  // Makes `key`'s bytes available host-side and returns the earliest instant the host→GPU
  // hop may start. Ready host copy: returns immediately (host hit). Queued staging: promoted
  // to an NVMe demand load. Absent: NVMe demand load through a host bounce buffer (a host
  // pool entry is kept when it fits). `*source` reports which tier served the bytes. A
  // disabled store returns `now` with source kHost.
  double EnsureHostSide(uint64_t key, uint64_t bytes, double now, Tier* source);

  // Demand load over the explicit NVMe→GPU direct path; returns the completion time.
  double DirectDemand(uint64_t key, uint64_t bytes, double now);

  // --- Prefetch path. ---
  // Plans the source side of a GPU prefetch issued at `now`. kFromHost sets `*earliest`;
  // kChained sets `*stage_tag` (an NVMe→host staging the caller should chain on — newly
  // issued here if none was in flight). kDirect asks the caller to run the transfer on the
  // NVMe link. Never fails: when the host pool cannot hold the staging copy the transfer
  // still runs through a transient host bounce buffer. A disabled store returns kFromHost
  // with `*earliest = now`.
  FillRoute PlanGpuFill(uint64_t key, uint64_t bytes, double now, double probability,
                        double* earliest, uint64_t* stage_tag);

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

  // Advances the NVMe link, landing staged transfers and firing chain hooks.
  void Tick(double now) { nvme_link_.Tick(now); }

  // Cross-checks stage bookkeeping against host-pool state (fuzz/property tests).
  bool BookkeepingConsistent() const;

 private:
  struct StageInfo {
    uint64_t key = 0;
    bool host_backed = false;  // False: transient bounce buffer, no host pool entry.
  };

  uint64_t StageInternal(uint64_t key, uint64_t bytes, double now, double probability,
                         bool require_host_backed);
  void OnNvmeScheduled(uint64_t tag, double completion);
  void EraseStage(uint64_t tag, uint64_t key);
  void NoteHostSpills(double now);
  void TraceMove(const char* name, uint64_t key, uint64_t bytes, double now);
  void TraceHostOccupancy(double now);

  TierConfig config_;
  std::unique_ptr<EvictionPolicy> host_policy_;
  ExpertCache gpu_;
  ExpertCache host_;
  PcieLink nvme_link_;
  TierStats stats_;
  StageScheduledHook stage_hook_;
  TransferScheduledHook direct_hook_;
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int host_track_ = 0;
  int nvme_track_ = 0;

  uint64_t next_stage_tag_ = 1;
  std::unordered_map<uint64_t, StageInfo> stage_by_tag_;
  std::unordered_map<uint64_t, uint64_t> stage_tag_by_key_;
  std::vector<CacheEntry> host_victims_scratch_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_TIERED_STORE_H_
