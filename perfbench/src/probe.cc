#include "perfbench/src/probe.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/util/math.h"

namespace perfbench {

void SelfTimer::Charge() {
  const Clock::time_point now = Clock::now();
  if (!stack_.empty()) {
    seconds_[static_cast<size_t>(stack_.back())] +=
        std::chrono::duration<double>(now - last_).count();
  }
  last_ = now;
}

void SelfTimer::Enter(Span span) {
  Charge();
  stack_.push_back(span);
}

void SelfTimer::Exit() {
  Charge();
  stack_.pop_back();
}

void ForwardingHandle::NotePrefetch(fmoe::ExpertId id) {
  if (data_.window_open) {
    data_.prefetches.push_back({engine_.now(), engine_.model().FlatIndex(id)});
  }
}

void ForwardingHandle::PrefetchAsync(fmoe::ExpertId id, double probability, double priority) {
  NotePrefetch(id);
  ScopedSpan span(data_.timer, Span::kEngine);
  engine_.PrefetchAsync(id, probability, priority);
}

void ForwardingHandle::PrefetchAsyncSized(fmoe::ExpertId id, double probability,
                                          double priority, double size_fraction) {
  NotePrefetch(id);
  ScopedSpan span(data_.timer, Span::kEngine);
  engine_.PrefetchAsyncSized(id, probability, priority, size_fraction);
}

void ForwardingHandle::StageToHostAsync(fmoe::ExpertId id, double probability) {
  ScopedSpan span(data_.timer, Span::kEngine);
  engine_.StageToHostAsync(id, probability);
}

void ForwardingHandle::BlockingLoad(fmoe::ExpertId id, double probability) {
  ScopedSpan span(data_.timer, Span::kEngine);
  engine_.BlockingLoad(id, probability);
}

void ForwardingHandle::SetCachedProbability(fmoe::ExpertId id, double probability) {
  ScopedSpan span(data_.timer, Span::kEngine);
  engine_.SetCachedProbability(id, probability);
}

std::vector<double> ForwardingHandle::SpeculativeGate(const fmoe::RequestRouting& routing,
                                                      int iteration, int target_layer,
                                                      int distance) const {
  ScopedSpan span(data_.timer, Span::kEngine);
  return engine_.SpeculativeGate(routing, iteration, target_layer, distance);
}

uint64_t ForwardingHandle::PublishDeferred(fmoe::OverheadCategory category,
                                           fmoe::PublishMode mode, double cost_seconds,
                                           uint64_t topic, fmoe::DeferredApply apply) {
  fmoe::DeferredApply timed;
  if (apply) {  // A null apply (pure-work job) must stay null.
    timed = [data = &data_, inner = std::move(apply)](fmoe::EngineHandle& engine) {
      ScopedSpan span(data->timer, Span::kApply);
      ForwardingHandle handle(engine, *data);
      inner(handle);
    };
  }
  ScopedSpan span(data_.timer, Span::kEngine);
  return engine_.PublishDeferred(category, mode, cost_seconds, topic, std::move(timed));
}

void TimingPolicy::OnRequestAdmitted(fmoe::EngineHandle& engine,
                                     const fmoe::IterationContext& context) {
  ScopedSpan span(data_->timer, Span::kOtherHook);
  ForwardingHandle handle(engine, *data_);
  inner_->OnRequestAdmitted(handle, context);
}

void TimingPolicy::OnIterationStart(fmoe::EngineHandle& engine,
                                    const fmoe::IterationContext& context) {
  ScopedSpan span(data_->timer, Span::kIterationStart);
  ForwardingHandle handle(engine, *data_);
  inner_->OnIterationStart(handle, context);
}

void TimingPolicy::OnGateOutput(fmoe::EngineHandle& engine, const fmoe::IterationContext& context,
                                int layer, const std::vector<double>& probs,
                                const std::vector<int>& activated) {
  ScopedSpan span(data_->timer, Span::kGateOutput);
  ForwardingHandle handle(engine, *data_);
  inner_->OnGateOutput(handle, context, layer, probs, activated);
}

void TimingPolicy::OnIterationEnd(fmoe::EngineHandle& engine,
                                  const fmoe::IterationContext& context,
                                  const std::vector<std::vector<double>>& layer_probs) {
  ScopedSpan span(data_->timer, Span::kIterationEnd);
  ForwardingHandle handle(engine, *data_);
  inner_->OnIterationEnd(handle, context, layer_probs);
}

void TimingPolicy::OnRequestCompleted(fmoe::EngineHandle& engine,
                                      const fmoe::IterationContext& context) {
  ScopedSpan span(data_->timer, Span::kOtherHook);
  ForwardingHandle handle(engine, *data_);
  inner_->OnRequestCompleted(handle, context);
}

GateReplay ReplayGate(const fmoe::GateSimulator& gate,
                      const std::vector<fmoe::Request>& requests) {
  using Clock = std::chrono::steady_clock;
  const fmoe::ModelConfig& model = gate.config();
  GateReplay replay;
  std::vector<double> probs;
  std::vector<size_t> top;
  for (const fmoe::Request& request : requests) {
    const Clock::time_point prefill_start = Clock::now();
    for (int layer = 0; layer < model.num_layers; ++layer) {
      gate.DistributionInto(request.routing, 0, layer, &probs);
      gate.ActivatedExperts(request.routing, 0, layer, request.prompt_tokens);
    }
    const Clock::time_point decode_start = Clock::now();
    for (int iteration = 1; iteration <= request.decode_tokens; ++iteration) {
      for (int layer = 0; layer < model.num_layers; ++layer) {
        gate.DistributionInto(request.routing, iteration, layer, &probs);
        fmoe::TopKIndicesInto(probs, static_cast<size_t>(model.top_k), &top);
      }
    }
    const Clock::time_point end = Clock::now();
    replay.prefill_s += std::chrono::duration<double>(decode_start - prefill_start).count();
    replay.decode_s += std::chrono::duration<double>(end - decode_start).count();
    replay.calls += static_cast<uint64_t>(request.decode_tokens + 1) *
                    static_cast<uint64_t>(model.num_layers);
  }
  return replay;
}

double PrefetchPrecision(const std::vector<PrefetchRequest>& prefetches,
                         const std::vector<fmoe::OracleAccess>& tape) {
  if (prefetches.empty()) {
    return 0.0;
  }
  // The tape is in serving order, so each key's demands are sorted by time.
  std::unordered_map<uint64_t, std::vector<std::pair<double, bool>>> demands;
  for (const fmoe::OracleAccess& access : tape) {
    demands[access.key].emplace_back(access.time, access.policy_hit);
  }
  uint64_t useful = 0;
  for (const PrefetchRequest& request : prefetches) {
    const auto it = demands.find(request.key);
    if (it == demands.end()) {
      continue;
    }
    const auto& uses = it->second;
    const auto next = std::lower_bound(
        uses.begin(), uses.end(), request.time,
        [](const std::pair<double, bool>& use, double t) { return use.first < t; });
    if (next != uses.end() && next->second) {
      ++useful;
    }
  }
  return static_cast<double>(useful) / static_cast<double>(prefetches.size());
}

}  // namespace perfbench
