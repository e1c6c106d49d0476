#include "src/serving/deferred.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"

namespace fmoe {

void DeferredPipelineStats::Accumulate(const DeferredPipelineStats& other) {
  published += other.published;
  applied += other.applied;
  superseded += other.superseded;
  dropped += other.dropped;
  blocking += other.blocking;
  modeled_work_s += other.modeled_work_s;
  overlapped_s += other.overlapped_s;
  wasted_work_s += other.wasted_work_s;
  queue_wait_s += other.queue_wait_s;
  decision_latency_s += other.decision_latency_s;
}

MatcherWorker::MatcherWorker(double latency_scale, int queue_depth)
    : latency_scale_(latency_scale), queue_depth_(queue_depth) {
  FMOE_CHECK_MSG(latency_scale >= 0.0, "negative matcher_latency_scale " << latency_scale);
  FMOE_CHECK_MSG(queue_depth >= 1, "matcher_queue_depth must be >= 1, got " << queue_depth);
}

uint64_t MatcherWorker::Publish(double now, DeferredJob job, std::vector<DeferredJob>* victims) {
  FMOE_CHECK(!synchronous());
  FMOE_CHECK(victims != nullptr);
  // A newer observation supersedes the pending job on the same topic (§4.3 staleness rule).
  if (job.topic != 0) {
    const auto it = pending_topic_.find(job.topic);
    if (it != pending_topic_.end()) {
      const auto stale = pending_.find(it->second);
      if (trace_) {
        trace_->Instant(trace_track_, "superseded", "matcher", now,
                        {TraceArg::Uint("topic", stale->second.topic),
                         TraceArg::Num("wasted_s", stale->second.cost_seconds)});
      }
      victims->push_back(std::move(stale->second));
      pending_.erase(stale);
      pending_topic_.erase(it);
    }
  }
  // Bounded queue: evict the stalest pending job to make room.
  while (pending_.size() >= static_cast<size_t>(queue_depth_)) {
    const auto oldest = pending_.begin();
    if (oldest->second.topic != 0) {
      pending_topic_.erase(oldest->second.topic);
    }
    if (trace_) {
      trace_->Instant(trace_track_, "dropped", "matcher", now,
                      {TraceArg::Uint("topic", oldest->second.topic),
                       TraceArg::Num("wasted_s", oldest->second.cost_seconds)});
    }
    victims->push_back(std::move(oldest->second));
    pending_.erase(oldest);
  }

  job.seq = next_seq_++;
  job.publish_time = now;
  job.start_time = std::max(now, worker_free_at_);
  job.completion_time = job.start_time + latency_scale_ * job.cost_seconds;
  worker_free_at_ = job.completion_time;
  if (job.topic != 0) {
    pending_topic_[job.topic] = job.seq;
  }
  const DeferredJob& queued =
      pending_.emplace_hint(pending_.end(), job.seq, std::move(job))->second;
  if (trace_) {
    // The span covers the worker's modeled occupancy, not the queue wait — "match-job", not
    // the overhead-category name, so it never collides with the engine's sync-overhead spans.
    trace_->Span(trace_track_, "match-job", "matcher", queued.start_time, queued.completion_time,
                 {TraceArg::Uint("seq", queued.seq), TraceArg::Uint("topic", queued.topic),
                  TraceArg::Str("category", OverheadCategoryName(queued.category)),
                  TraceArg::Num("queued_s", queued.start_time - queued.publish_time)});
    trace_->Counter(trace_track_, "matcher.pending", now, static_cast<double>(pending_.size()));
  }
  return queued.seq;
}

bool MatcherWorker::PopDue(double now, DeferredJob* out) {
  if (pending_.empty() || pending_.begin()->second.completion_time > now) {
    return false;
  }
  const auto next = pending_.begin();
  *out = std::move(next->second);
  pending_.erase(next);
  if (out->topic != 0) {
    pending_topic_.erase(out->topic);
  }
  if (trace_) {
    trace_->Counter(trace_track_, "matcher.pending", now, static_cast<double>(pending_.size()));
  }
  return true;
}

}  // namespace fmoe
