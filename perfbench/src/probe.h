// Outside-in observers for the benchmark's traced pass.
//
// Everything here wraps public interfaces and only forwards calls:
//   * SelfTimer charges wall time to the innermost open span, so engine time and policy time
//     come out as self times that sum to the serving phase.
//   * TimingPolicy decorates a system's OffloadPolicy: each hook runs inside its own span and
//     sees a ForwardingHandle instead of the engine.
//   * ForwardingHandle forwards every EngineHandle service to the engine, timing the ones that
//     do engine work, recording prefetch requests, and wrapping each DeferredApply the policy
//     publishes so the commands it lands are timed too.
// Attaching them must leave every virtual-time result bitwise unchanged; the benchmark checks
// that it does on every traced run.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/moe/gate_simulator.h"
#include "src/oracle/gate_recorder.h"
#include "src/serving/policy.h"
#include "src/workload/workload.h"

namespace perfbench {

// Where the serving phase's wall time goes.
enum class Span : int {
  kEngine = 0,      // Engine and scheduler code, including services a policy calls back into.
  kIterationStart,  // OffloadPolicy::OnIterationStart (fMoE: semantic search).
  kGateOutput,      // OnGateOutput (fMoE: trajectory search + prefetch selection).
  kIterationEnd,    // OnIterationEnd (fMoE: store insert with RDY dedup).
  kApply,           // DeferredApply bodies: prefetch commands landing in the engine.
  kOtherHook,       // OnRequestAdmitted / OnRequestCompleted.
  kCount,
};

// Self-time accounting over nested spans: elapsed time is charged to the innermost open span;
// time with no span open is charged nowhere.
class SelfTimer {
 public:
  void Enter(Span span);
  void Exit();
  // Zeroes the accumulators (call between spans, e.g. when the measured window opens).
  void Reset() { seconds_ = {}; }
  double seconds(Span span) const { return seconds_[static_cast<size_t>(span)]; }

 private:
  using Clock = std::chrono::steady_clock;
  void Charge();

  std::vector<Span> stack_;
  std::array<double, static_cast<size_t>(Span::kCount)> seconds_ = {};
  Clock::time_point last_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SelfTimer& timer, Span span) : timer_(timer) { timer_.Enter(span); }
  ~ScopedSpan() { timer_.Exit(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SelfTimer& timer_;
};

struct PrefetchRequest {
  double time = 0.0;  // Virtual time the policy asked for the expert.
  uint64_t key = 0;   // ModelConfig::FlatIndex of the expert.
};

// What the observers collect for one engine. Must outlive the engine: deferred jobs still
// queued when the run ends hold a pointer to it.
struct ProbeData {
  SelfTimer timer;
  bool window_open = false;  // Prefetch requests are recorded only inside the measured window.
  std::vector<PrefetchRequest> prefetches;

  void OpenWindow() {
    timer.Reset();
    prefetches.clear();
    window_open = true;
  }
};

class ForwardingHandle final : public fmoe::EngineHandle {
 public:
  ForwardingHandle(fmoe::EngineHandle& engine, ProbeData& data) : engine_(engine), data_(data) {}

  const fmoe::ModelConfig& model() const override { return engine_.model(); }
  double now() const override { return engine_.now(); }
  int prefetch_distance() const override { return engine_.prefetch_distance(); }
  void PrefetchAsync(fmoe::ExpertId id, double probability, double priority) override;
  void PrefetchAsyncSized(fmoe::ExpertId id, double probability, double priority,
                          double size_fraction) override;
  void StageToHostAsync(fmoe::ExpertId id, double probability) override;
  void BlockingLoad(fmoe::ExpertId id, double probability) override;
  bool IsCached(fmoe::ExpertId id) const override { return engine_.IsCached(id); }
  void SetCachedProbability(fmoe::ExpertId id, double probability) override;
  std::vector<double> SpeculativeGate(const fmoe::RequestRouting& routing, int iteration,
                                      int target_layer, int distance) const override;
  fmoe::TraceRecorder* trace() const override { return engine_.trace(); }
  void AddOverhead(fmoe::OverheadCategory category, double seconds) override {
    engine_.AddOverhead(category, seconds);
  }
  void AddAsyncWork(fmoe::OverheadCategory category, double seconds) override {
    engine_.AddAsyncWork(category, seconds);
  }
  uint64_t PublishDeferred(fmoe::OverheadCategory category, fmoe::PublishMode mode,
                           double cost_seconds, uint64_t topic,
                           fmoe::DeferredApply apply) override;

 private:
  void NotePrefetch(fmoe::ExpertId id);

  fmoe::EngineHandle& engine_;
  ProbeData& data_;
};

class TimingPolicy final : public fmoe::OffloadPolicy {
 public:
  TimingPolicy(fmoe::OffloadPolicy* inner, ProbeData* data) : inner_(inner), data_(data) {}

  std::string name() const override { return inner_->name(); }
  void OnRequestAdmitted(fmoe::EngineHandle& engine,
                         const fmoe::IterationContext& context) override;
  void OnIterationStart(fmoe::EngineHandle& engine,
                        const fmoe::IterationContext& context) override;
  void OnGateOutput(fmoe::EngineHandle& engine, const fmoe::IterationContext& context, int layer,
                    const std::vector<double>& probs, const std::vector<int>& activated) override;
  void OnIterationEnd(fmoe::EngineHandle& engine, const fmoe::IterationContext& context,
                      const std::vector<std::vector<double>>& layer_probs) override;
  void OnRequestCompleted(fmoe::EngineHandle& engine,
                          const fmoe::IterationContext& context) override;
  void Reset() override { inner_->Reset(); }

 private:
  fmoe::OffloadPolicy* inner_;  // Not owned.
  ProbeData* data_;             // Not owned.
};

// Repeats, through the public GateSimulator API, the gate calls the engine makes for every
// (request, iteration, layer) of `requests`: DistributionInto, then ActivatedExperts at
// prefill or TopKIndicesInto at decode.
struct GateReplay {
  double prefill_s = 0.0;
  double decode_s = 0.0;
  uint64_t calls = 0;  // (request, iteration, layer) evaluations.
};
GateReplay ReplayGate(const fmoe::GateSimulator& gate, const std::vector<fmoe::Request>& requests);

// Share of prefetch requests whose expert is next demanded (at or after the request) as a hit,
// judged against the oracle tape of the same window. Requests never followed by a demand count
// as wasted. Returns 0 when there were no requests.
double PrefetchPrecision(const std::vector<PrefetchRequest>& prefetches,
                         const std::vector<fmoe::OracleAccess>& tape);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
