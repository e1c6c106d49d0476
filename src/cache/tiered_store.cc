#include "src/cache/tiered_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"

namespace fmoe {

TieredExpertStore::TieredExpertStore(uint64_t gpu_capacity_bytes, const EvictionPolicy* gpu_policy,
                                     const TierConfig& config)
    : config_(config),
      host_policy_(MakeEvictionPolicy(config.host_policy)),
      gpu_(gpu_capacity_bytes, gpu_policy),
      host_(config.enabled() ? config.host_capacity_bytes : 0, host_policy_.get()),
      nvme_link_(config.nvme_link) {
  nvme_link_.set_completion_callback(
      [this](uint64_t tag, double completion) { OnNvmeScheduled(tag, completion); });
}

void TieredExpertStore::set_trace(TraceRecorder* trace, int host_track, int nvme_track) {
  trace_ = trace;
  host_track_ = host_track;
  nvme_track_ = nvme_track;
  nvme_link_.set_trace(trace, nvme_track);
}

void TieredExpertStore::Tick(double now) {
  now_ = now;
  nvme_link_.Tick(now);
}

void TieredExpertStore::AttachDeviceLink(PcieLink& link) {
  link.set_completion_callback(
      [this](uint64_t tag, double completion) { OnFillStarted(tag, completion); });
}

void TieredExpertStore::StartFill(uint64_t key, uint64_t tag, double now, double probability,
                                  PcieLink& link) {
  EntryRef gpu_entry = gpu_.Find(key);
  FMOE_CHECK(gpu_entry && gpu_entry.prefetch_pending());
  gpu_entry.set_transfer_tag(tag);
  const uint64_t bytes = gpu_entry.bytes();
  // Recorded before any link call: an idle link starts the transfer inside the enqueue.
  fill_by_tag_[tag] = PendingFill{key, bytes, &link};
  if (!enabled()) {
    link.EnqueuePrefetchAfter(now, tag, bytes, now);
    return;
  }
  Tick(now);
  EntryRef entry = host_.Find(key);
  if (entry && !entry.prefetch_pending()) {
    ++stats_.gpu_fills_from_host;
    const double earliest = std::max(now, entry.ready_at());
    host_.Touch(key, now);
    link.EnqueuePrefetchAfter(now, tag, bytes, earliest);
    return;
  }
  const auto stage_it = stage_tag_by_key_.find(key);
  if (stage_it == stage_tag_by_key_.end() && config_.allow_direct_nvme_gpu) {
    ++stats_.direct_loads;
    fill_by_tag_[tag].route = Route::kDirect;
    nvme_link_.EnqueuePrefetch(now, tag, bytes);
    return;
  }
  // Chain onto the staging in flight for this key, or issue one.
  const uint64_t stage_tag =
      stage_it != stage_tag_by_key_.end()
          ? stage_it->second
          : StageInternal(key, bytes, now, probability, /*require_host_backed=*/false);
  ++stats_.gpu_fills_chained;
  if (const auto it = stage_by_tag_.find(stage_tag); it != stage_by_tag_.end()) {
    it->second.chained_tag = tag;
  }
  fill_by_tag_[tag].route = Route::kChained;
}

void TieredExpertStore::OnFillStarted(uint64_t tag, double completion) {
  const auto it = fill_by_tag_.find(tag);
  if (it == fill_by_tag_.end()) {
    return;  // Not a live fill.
  }
  const uint64_t key = it->second.key;
  fill_by_tag_.erase(it);
  if (EntryRef entry = gpu_.Find(key); entry && entry.transfer_tag() == tag) {
    entry.set_ready_at(completion);
    entry.set_prefetch_pending(false);
    entry.set_transfer_tag(0);
  }
}

void TieredExpertStore::CancelFill(uint64_t tag) {
  const auto it = fill_by_tag_.find(tag);
  if (it == fill_by_tag_.end()) {
    return;
  }
  switch (it->second.route) {
    case Route::kDeviceLink:
      it->second.link->CancelQueuedPrefetch(tag);
      break;
    case Route::kDirect:
      nvme_link_.CancelQueuedPrefetch(tag);
      break;
    case Route::kChained:
      break;  // The staging continues and lands as a plain host copy.
  }
  EraseFill(it);
}

double TieredExpertStore::PromoteFill(uint64_t key, double now, Tier* source) {
  EntryRef entry = gpu_.Find(key);
  const uint64_t tag = entry.transfer_tag();
  const auto it = fill_by_tag_.find(tag);
  FMOE_CHECK(it != fill_by_tag_.end());
  const PendingFill fill = it->second;
  EraseFill(it);
  entry.set_transfer_tag(0);
  double ready = 0.0;
  switch (fill.route) {
    case Route::kDeviceLink: {
      // The hop is queued on the device link: promote it there, honouring the host copy's
      // availability (it may still be landing from an earlier staging).
      fill.link->CancelQueuedPrefetch(tag);
      const ConstEntryRef copy = std::as_const(host_).Find(key);
      const double earliest =
          copy && !copy.prefetch_pending() ? std::max(now, copy.ready_at()) : now;
      ready = fill.link->DemandLoadAfter(now, earliest, fill.bytes);
      break;
    }
    case Route::kDirect:
      nvme_link_.CancelQueuedPrefetch(tag);
      *source = Tier::kNvme;
      ready = DirectDemand(key, fill.bytes, now);
      break;
    case Route::kChained: {
      // The hop was never enqueued (still chained behind NVMe→host staging): resolve the
      // whole chain on demand — promote the staging NVMe-side, then demand the hop behind
      // the staged data's availability.
      const double earliest = EnsureHostSide(key, fill.bytes, now, source);
      ready = fill.link->DemandLoadAfter(now, earliest, fill.bytes);
      break;
    }
  }
  entry.set_ready_at(ready);
  entry.set_prefetch_pending(false);
  return ready;
}

double TieredExpertStore::DemandFill(uint64_t key, uint64_t bytes, double now, PcieLink& link,
                                     Tier* source) {
  if (enabled() && config_.allow_direct_nvme_gpu && !HostResident(key)) {
    *source = Tier::kNvme;
    return DirectDemand(key, bytes, now);
  }
  const double earliest = EnsureHostSide(key, bytes, now, source);
  return link.DemandLoadAfter(now, earliest, bytes);
}

void TieredExpertStore::EraseFill(std::unordered_map<uint64_t, PendingFill>::iterator it) {
  if (const auto stage = stage_tag_by_key_.find(it->second.key);
      stage != stage_tag_by_key_.end()) {
    StageInfo& info = stage_by_tag_.at(stage->second);
    if (info.chained_tag == it->first) {
      info.chained_tag = 0;
    }
  }
  fill_by_tag_.erase(it);
}

double TieredExpertStore::EnsureHostSide(uint64_t key, uint64_t bytes, double now, Tier* source) {
  if (!enabled()) {
    *source = Tier::kHost;
    return now;
  }
  Tick(now);  // Land any staging that has started before routing.
  EntryRef entry = host_.Find(key);
  if (entry && !entry.prefetch_pending()) {
    // Host hit: the copy is committed (possibly still in flight from an earlier staging; the
    // GPU hop then starts when it lands).
    ++stats_.host_hits;
    *source = Tier::kHost;
    const double available = std::max(now, entry.ready_at());
    host_.Touch(key, now);
    TraceMove("host-hit", key, bytes, now);
    return available;
  }
  // Any still-queued staging is promoted: cancel the queued NVMe prefetch and jump the NVMe
  // queue with a demand load (mirroring the GPU link's queued-promoted discipline).
  const auto stage_it = stage_tag_by_key_.find(key);
  if (stage_it != stage_tag_by_key_.end()) {
    const uint64_t stage_tag = stage_it->second;
    nvme_link_.CancelQueuedPrefetch(stage_tag);
    EraseStage(stage_tag, key);
    ++stats_.stage_promotions;
  }
  const double ready = nvme_link_.DemandLoad(now, bytes);
  ++stats_.nvme_hits;
  *source = Tier::kNvme;
  if (entry) {
    // Host-backed staging entry adopts the demand completion.
    entry.set_ready_at(ready);
    entry.set_prefetch_pending(false);
    entry.set_transfer_tag(0);
    host_.Unpin(key);
    host_.Touch(key, now);
  } else {
    // Keep a host pool copy of the demand-staged bytes when it fits (the transfer streams
    // through a transient bounce buffer either way).
    CacheEntry fresh;
    fresh.key = key;
    fresh.bytes = bytes;
    fresh.ready_at = ready;
    fresh.last_access = now;
    fresh.prefetch_pending = false;
    host_victims_scratch_.clear();
    if (host_.Insert(fresh, now, &host_victims_scratch_)) {
      NoteHostSpills(now);
      TraceHostOccupancy(now);
    }
  }
  TraceMove("nvme-demand-stage", key, bytes, now);
  return ready;
}

double TieredExpertStore::DirectDemand(uint64_t key, uint64_t bytes, double now) {
  Tick(now);
  ++stats_.nvme_hits;
  ++stats_.direct_loads;
  TraceMove("nvme-direct-demand", key, bytes, now);
  return nvme_link_.DemandLoad(now, bytes);
}

uint64_t TieredExpertStore::StageToHost(uint64_t key, uint64_t bytes, double now,
                                        double probability) {
  if (!enabled() || config_.host_capacity_bytes == 0) {
    return 0;
  }
  Tick(now);
  if (host_.Contains(key)) {
    host_.SetProbability(key, probability);
    return 0;
  }
  if (stage_tag_by_key_.contains(key)) {
    // A transient (bounce-buffer) staging for this key is already in flight; issuing a
    // second one would fork the per-key stage bookkeeping.
    return 0;
  }
  return StageInternal(key, bytes, now, probability, /*require_host_backed=*/true);
}

uint64_t TieredExpertStore::StageInternal(uint64_t key, uint64_t bytes, double now,
                                          double probability, bool require_host_backed) {
  CacheEntry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.ready_at = std::numeric_limits<double>::infinity();
  entry.last_access = now;
  entry.probability = probability;
  entry.prefetch_pending = true;
  const uint64_t tag = next_stage_tag_++;
  entry.transfer_tag = tag;
  host_victims_scratch_.clear();
  const bool host_backed = host_.Insert(entry, now, &host_victims_scratch_);
  if (host_backed) {
    NoteHostSpills(now);
    // Pinned until the staging transfer is scheduled: a queued staging entry can never be
    // evicted out from under its chain.
    host_.Pin(key);
    TraceHostOccupancy(now);
  } else if (require_host_backed) {
    return 0;
  }
  stage_by_tag_.emplace(tag, StageInfo{key, host_backed});
  stage_tag_by_key_.emplace(key, tag);
  ++stats_.stages_issued;
  nvme_link_.EnqueuePrefetch(now, tag, bytes);
  TraceMove(host_backed ? "stage-issue" : "stage-issue-transient", key, bytes, now);
  return tag;
}

void TieredExpertStore::OnNvmeScheduled(uint64_t tag, double completion) {
  const auto it = stage_by_tag_.find(tag);
  if (it == stage_by_tag_.end()) {
    OnFillStarted(tag, completion);  // Not a staging tag: a direct-path GPU fill.
    return;
  }
  const StageInfo info = it->second;
  EraseStage(tag, info.key);
  if (info.host_backed) {
    EntryRef entry = host_.Find(info.key);
    if (entry && entry.transfer_tag() == tag) {
      entry.set_ready_at(completion);
      entry.set_prefetch_pending(false);
      entry.set_transfer_tag(0);
      host_.Unpin(info.key);
    }
  }
  ++stats_.stages_landed;
  if (info.chained_tag != 0) {
    // The chained host→GPU hop may start once the staged bytes have landed.
    const auto fill = fill_by_tag_.find(info.chained_tag);
    FMOE_CHECK(fill != fill_by_tag_.end() && fill->second.key == info.key &&
               fill->second.route == Route::kChained);
    fill->second.route = Route::kDeviceLink;
    PcieLink& link = *fill->second.link;
    const uint64_t bytes = fill->second.bytes;
    link.EnqueuePrefetchAfter(now_, info.chained_tag, bytes, std::max(now_, completion));
  }
}

void TieredExpertStore::EraseStage(uint64_t tag, uint64_t key) {
  stage_by_tag_.erase(tag);
  const auto it = stage_tag_by_key_.find(key);
  if (it != stage_tag_by_key_.end() && it->second == tag) {
    stage_tag_by_key_.erase(it);
  }
}

void TieredExpertStore::ReleaseGpuVictim(const CacheEntry& victim, double now) {
  if (victim.prefetch_pending && victim.transfer_tag != 0) {
    CancelFill(victim.transfer_tag);
  } else {
    DemoteGpuVictim(victim, now);
  }
}

void TieredExpertStore::DemoteGpuVictim(const CacheEntry& victim, double now) {
  if (!enabled()) {
    return;
  }
  if (config_.host_capacity_bytes == 0 || host_.Contains(victim.key)) {
    // No host tier (two-tier GPU↔NVMe) or a host copy already exists: the victim's data is
    // simply dropped — NVMe holds the master copy.
    if (!host_.Contains(victim.key)) {
      ++stats_.demotions_to_nvme;
      TraceMove("evicted-to-nvme", victim.key, victim.bytes, now);
    } else {
      ++stats_.demotions_to_host;
      TraceMove("evicted-to-host", victim.key, victim.bytes, now);
    }
    return;
  }
  CacheEntry entry = victim;
  entry.ready_at = now;  // Device→host writeback rides the free full-duplex reverse lane.
  entry.last_access = now;
  entry.prefetch_pending = false;
  entry.transfer_tag = 0;
  entry.pin_count = 0;
  host_victims_scratch_.clear();
  if (host_.Insert(entry, now, &host_victims_scratch_)) {
    NoteHostSpills(now);
    ++stats_.demotions_to_host;
    TraceMove("evicted-to-host", victim.key, victim.bytes, now);
    TraceHostOccupancy(now);
  } else {
    ++stats_.demotions_to_nvme;
    TraceMove("evicted-to-nvme", victim.key, victim.bytes, now);
  }
}

void TieredExpertStore::NoteHostSpills(double now) {
  for (const CacheEntry& victim : host_victims_scratch_) {
    ++stats_.host_spills;
    TraceMove("spill-to-nvme", victim.key, victim.bytes, now);
  }
  host_victims_scratch_.clear();
}

void TieredExpertStore::TraceMove(const char* name, uint64_t key, uint64_t bytes, double now) {
  if (trace_) {
    trace_->Instant(host_track_, name, "tier", now,
                    {TraceArg::Uint("key", key), TraceArg::Uint("bytes", bytes)});
  }
}

void TieredExpertStore::TraceHostOccupancy(double now) {
  if (trace_) {
    trace_->Counter(host_track_, "host.used_bytes", now,
                    static_cast<double>(host_.used_bytes()));
    trace_->Counter(host_track_, "host.entries", now, static_cast<double>(host_.size()));
  }
}

bool TieredExpertStore::BookkeepingConsistent() const {
  if (stage_by_tag_.size() != stage_tag_by_key_.size()) {
    return false;
  }
  for (const auto& [tag, info] : stage_by_tag_) {
    const auto key_it = stage_tag_by_key_.find(info.key);
    if (key_it == stage_tag_by_key_.end() || key_it->second != tag) {
      return false;
    }
    const ConstEntryRef entry = host_.Find(info.key);
    if (info.host_backed) {
      // A host-backed staging entry must still be pending on this tag and pinned.
      if (!entry || !entry.prefetch_pending() || entry.transfer_tag() != tag ||
          entry.pin_count() == 0) {
        return false;
      }
    } else if (entry) {
      // Transient stagings have no host entry by definition.
      return false;
    }
    if (info.chained_tag != 0) {
      // The chained fill is still waiting, on this key, for a device link.
      const auto fill = fill_by_tag_.find(info.chained_tag);
      if (fill == fill_by_tag_.end() || fill->second.key != info.key ||
          fill->second.route != Route::kChained) {
        return false;
      }
    }
  }
  for (const auto& [tag, fill] : fill_by_tag_) {
    // Every fill names a pending GPU entry carrying its tag...
    const ConstEntryRef entry = gpu_.Find(fill.key);
    if (!entry || !entry.prefetch_pending() || entry.transfer_tag() != tag) {
      return false;
    }
  }
  for (const uint64_t key : gpu_.Keys()) {
    // ...and every pending GPU entry with a tag has a fill.
    const ConstEntryRef entry = gpu_.Find(key);
    if (entry.prefetch_pending() && entry.transfer_tag() != 0) {
      const auto fill = fill_by_tag_.find(entry.transfer_tag());
      if (fill == fill_by_tag_.end() || fill->second.key != key) {
        return false;
      }
    }
  }
  if (host_.used_bytes() > host_.capacity_bytes()) {
    return false;
  }
  return true;
}

}  // namespace fmoe
