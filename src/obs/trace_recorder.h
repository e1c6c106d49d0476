// Virtual-time trace recorder (the observability layer, DESIGN.md §5f).
//
// A TraceRecorder collects typed span / instant / counter events stamped with virtual-time
// seconds as the serving engine, the memsim links, the matcher worker, and the expert cache
// execute. It is a *pure observer*: nothing in the simulation reads recorder state to make a
// decision, so attaching one cannot change a run's metrics, goldens, or bench stdout — a
// property pinned by tests/trace_recorder_test.cc. With no recorder attached (the default)
// every hook site is a single null-pointer check: zero allocation, zero virtual calls.
//
// Tracks are pseudo-threads: one per logical timeline (the engine's critical path, each
// GPU's host link and memory, the matcher worker, the cache, one per request batch slot).
// perfetto_export.h serialises the recorded events as Chrome trace-event JSON, loadable in
// Perfetto / chrome://tracing, with virtual seconds mapped to microseconds.
//
// The recorder also carries the run's stall attribution (stall_report.h renders it): every
// demand stall split into {never-prefetched, prefetch-in-flight, evicted-before-use}. The
// classification itself belongs to the engine's one always-on StallStateMachine
// (control_signals.h); the engine copies its attribution in after each served miss, so the
// recorder holds a snapshot that outlives the engine and that no decision ever reads. The
// attributed total is accumulated with the exact same sequence of additions as
// LatencyBreakdown::demand_stall, so the two are bitwise equal at the end of a run.
//
// Thread-safety: a recorder belongs to exactly one engine (one simulation timeline) and is
// not synchronised. The parallel plan runner attaches a recorder to a single task.
#ifndef FMOE_SRC_OBS_TRACE_RECORDER_H_
#define FMOE_SRC_OBS_TRACE_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/control_signals.h"

namespace fmoe {

// One key/value annotation attached to a span or instant event. Values are pre-rendered to
// strings at record time; `numeric` controls whether the JSON exporter quotes them.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;

  static TraceArg Int(std::string key, int64_t v);
  static TraceArg Uint(std::string key, uint64_t v);
  static TraceArg Num(std::string key, double v);
  static TraceArg Str(std::string key, std::string v);
};

// Event kinds, mirroring the Chrome trace-event phases the exporter emits ("X", "i", "C").
enum class TracePhase : uint8_t {
  kSpan = 0,     // [start_s, end_s] on one track.
  kInstant = 1,  // Point event at start_s.
  kCounter = 2,  // Sampled value at start_s.
};

struct TraceEvent {
  TracePhase phase = TracePhase::kSpan;
  int track = 0;          // 1-based pseudo-thread id from RegisterTrack.
  std::string name;       // Stable event name ("attention", "prefetch", "evict", ...).
  std::string category;   // Taxonomy bucket ("compute", "transfer", "cache", ...).
  double start_s = 0.0;   // Virtual-time seconds (timestamp for instants/counters).
  double end_s = 0.0;     // Spans only.
  double value = 0.0;     // Counters only.
  std::vector<TraceArg> args;
};

// StallClass / StallTier / StallAttribution live in control_signals.h (the taxonomy is shared
// with the live control plane); this header re-exports them transitively.

class TraceRecorder {
 public:
  TraceRecorder() = default;

  // Fallback clock for hook sites without an explicit timestamp (GPU memory counters,
  // cache removes). The engine installs a reader of its SimClock at construction.
  void SetTimeSource(std::function<double()> now_fn) { now_fn_ = std::move(now_fn); }
  double now() const { return now_fn_ ? now_fn_() : 0.0; }

  // Registers a pseudo-thread and returns its 1-based track id (Perfetto tid).
  int RegisterTrack(const std::string& name);
  const std::vector<std::string>& track_names() const { return tracks_; }

  void Span(int track, std::string name, std::string category, double start_s, double end_s,
            std::vector<TraceArg> args = {});
  void Instant(int track, std::string name, std::string category, double ts_s,
               std::vector<TraceArg> args = {});
  void Counter(int track, std::string name, double ts_s, double value);

  const std::vector<TraceEvent>& events() const { return events_; }

  // Sum of span durations (end - start) over spans named `name`; tests use this to check
  // trace ↔ LatencyBreakdown consistency.
  double SpanSeconds(std::string_view name) const;
  uint64_t CountEvents(TracePhase phase, std::string_view name) const;

  // The stall attribution of the recorded window (zero until the engine copies one in).
  const StallAttribution& stall() const { return stall_; }
  void set_stall(const StallAttribution& stall) { stall_ = stall; }

  // Drops recorded events and the stall attribution but keeps tracks and the time source —
  // the engine calls this when metrics reset after warmup, so the exported trace and the
  // attribution cover exactly the measured phase.
  void ClearEvents();

 private:
  std::function<double()> now_fn_;
  std::vector<std::string> tracks_;
  std::vector<TraceEvent> events_;
  StallAttribution stall_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_OBS_TRACE_RECORDER_H_
