// Modeled background matcher worker for the asynchronous pub-sub pipeline (§4.3).
//
// Policies publish match/prefetch jobs (PublishDeferred in policy.h); this worker schedules
// them on a serial background timeline: a job published at time t with modeled cost c starts
// when the worker frees up and completes `latency_scale * c` later. The serving engine drains
// completed jobs at layer boundaries and applies their commands there — so matcher latency
// delays *when prefetch decisions reach the links* without ever extending the iteration, and
// a slow matcher (large scale, deep backlog) starves its own prefetch lead time exactly the
// way the paper's decoupled matcher can.
//
// Pub-sub staleness: jobs carry a topic; publishing to a topic with a still-pending job drops
// the older one (a newer gate observation supersedes the stale decision). The pending queue
// is bounded: past `queue_depth`, the oldest pending job is dropped. Superseded/dropped work
// stays charged to the async-work accounting — the matcher did the work, the system just
// never used the result.
//
// With latency_scale == 0 nothing is ever queued (Publish reports completion == publish time
// and the engine applies inline), reproducing the pre-pub-sub synchronous semantics exactly —
// the equivalence the replay and golden-metrics tests pin.
#ifndef FMOE_SRC_SERVING_DEFERRED_H_
#define FMOE_SRC_SERVING_DEFERRED_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/serving/policy.h"

namespace fmoe {

class TraceRecorder;

// One scheduled deferred job. publish/start/completion describe the worker timeline:
// start = max(publish_time, worker free), completion = start + latency_scale * cost.
struct DeferredJob {
  uint64_t seq = 0;
  uint64_t topic = 0;
  OverheadCategory category = OverheadCategory::kMapMatching;
  double cost_seconds = 0.0;
  double publish_time = 0.0;
  double start_time = 0.0;
  double completion_time = 0.0;
  DeferredApply apply;
};

// Counters for the pub-sub pipeline, reported next to the latency breakdown. `published`
// partitions into applied + superseded + dropped + blocking + still-pending.
struct DeferredPipelineStats {
  uint64_t published = 0;   // All PublishDeferred calls.
  uint64_t applied = 0;     // Commands reached the engine (inline or after deferral).
  uint64_t superseded = 0;  // Replaced by a newer job on the same topic before completing.
  uint64_t dropped = 0;     // Evicted from a full queue (oldest first).
  uint64_t blocking = 0;    // kBlocking publishes (synchronous critical-path decisions).

  double modeled_work_s = 0.0;   // Total published async cost (== async work charged).
  double overlapped_s = 0.0;     // Cost of applied async jobs: ran concurrently with compute.
  double wasted_work_s = 0.0;    // Cost of superseded + dropped jobs (computed, never used).
  double queue_wait_s = 0.0;     // Applied jobs: time spent waiting for the worker.
  double decision_latency_s = 0.0;  // Applied jobs: publish -> completion.

  // Saturating: jobs published before a metrics reset may resolve after it.
  uint64_t Pending() const {
    const uint64_t resolved = applied + superseded + dropped + blocking;
    return resolved >= published ? 0 : published - resolved;
  }
  void Accumulate(const DeferredPipelineStats& other);
};

class MatcherWorker {
 public:
  // `latency_scale` multiplies every published cost (0 = instantaneous, the synchronous
  // semantics); `queue_depth` bounds pending jobs (>= 1).
  MatcherWorker(double latency_scale, int queue_depth);

  // True when every publish completes at its publish instant (callers apply inline).
  bool synchronous() const { return latency_scale_ == 0.0; }

  double latency_scale() const { return latency_scale_; }
  size_t pending() const { return pending_.size(); }
  double worker_free_at() const { return worker_free_at_; }

  // Attaches a trace recorder (pure observer). Each scheduled job becomes a span on `track`
  // covering its modeled worker occupancy; supersessions and depth drops become instants.
  void set_trace(TraceRecorder* trace, int track) {
    trace_ = trace;
    trace_track_ = track;
  }

  // Schedules a job published at `now` and returns its queue sequence number. Appends any
  // superseded/depth-dropped victims to `*victims` (never null) so the caller can account
  // their wasted work. Must not be called when synchronous().
  uint64_t Publish(double now, DeferredJob job, std::vector<DeferredJob>* victims);

  // Pops the oldest pending job if its completion_time <= now. Completions never decrease
  // in publish order (the serial worker's free instant only grows), so this is also the
  // earliest-completing job, ties going to the earlier publish.
  bool PopDue(double now, DeferredJob* out);

 private:
  double latency_scale_;
  int queue_depth_;
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int trace_track_ = 0;
  double worker_free_at_ = 0.0;
  uint64_t next_seq_ = 1;
  // Pending jobs by publish seq: a FIFO whose begin() is both the next job due and the
  // stalest job a full queue drops.
  std::map<uint64_t, DeferredJob> pending_;
  // topic -> seq of its pending job, for supersession. Entries are erased on pop/drop.
  std::unordered_map<uint64_t, uint64_t> pending_topic_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_DEFERRED_H_
