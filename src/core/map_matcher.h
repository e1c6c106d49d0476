// Hybrid expert-map matcher (§4.2, Fig. 7).
//
// Per-iteration state machine combining the two searches:
//   * BeginIteration runs the semantic search on the iteration embedding; its matched map
//     guides prefetching for the first d layers (no trajectory observed yet).
//   * ObserveLayer feeds the gate output to an incremental TrajectorySearchSession (which
//     extends per-record running dot products by just the new layer) and, on a configurable
//     cadence — the matcher runs asynchronously and cannot re-match every layer — reads the
//     session's current best match; the matched map guides layer l + d.
// GuidanceFor(target) returns the appropriate matched distribution and its similarity score,
// which the prefetcher turns into the dynamic selection threshold δ.
#ifndef FMOE_SRC_CORE_MAP_MATCHER_H_
#define FMOE_SRC_CORE_MAP_MATCHER_H_

#include <cstdint>
#include <vector>

#include "src/core/map_store.h"
#include "src/core/sharded_store.h"

namespace fmoe {

struct MatcherOptions {
  bool use_semantic = true;
  bool use_trajectory = true;
  // Trajectory re-match cadence in layers (1 = every layer; higher amortises search cost).
  int rematch_interval = 4;
};

struct Guidance {
  bool valid = false;
  double score = 0.0;               // Similarity score of the matched map.
  std::vector<double> probs;        // Matched distribution for the target layer.
};

class HybridMatcher {
 public:
  HybridMatcher(const ShardedMapStore* store, const ModelConfig& model, int prefetch_distance,
                const MatcherOptions& options);

  // Starts a new iteration: runs the semantic search against `embedding`.
  void BeginIteration(std::span<const double> embedding);

  // Records the gate output of `layer` and re-runs the trajectory search on cadence.
  void ObserveLayer(int layer, std::span<const double> probs);

  // Matched guidance for `target_layer`: semantic-matched for layers < d, trajectory-matched
  // otherwise. Invalid when the relevant search is disabled or found nothing.
  Guidance GuidanceFor(int target_layer) const;

  double semantic_score() const { return semantic_.score; }
  double trajectory_score() const { return trajectory_.score; }
  bool semantic_found() const { return semantic_.found; }
  bool trajectory_found() const { return trajectory_.found; }

  // This iteration's trajectory session; the end-of-iteration insert reuses its dots.
  const ShardedTrajectorySession& session() const { return session_; }

  // Search work (flops) performed since the last call; feeds the async-overhead model.
  // Trajectory work is charged incrementally: 2·J·N per observed layer (the session's dot
  // extension) plus 3·N per rematch (score normalization), not a recomputed-prefix scan.
  uint64_t ConsumeSearchFlops();

 private:
  const ShardedMapStore* store_;  // Not owned.
  ModelConfig model_;
  int prefetch_distance_;
  MatcherOptions options_;

  SearchResult semantic_;
  SearchResult trajectory_;
  ShardedTrajectorySession session_;  // Incremental trajectory state, one dot cache per shard.
  int observed_layers_ = 0;
  int last_match_prefix_ = 0;
  uint64_t pending_flops_ = 0;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CORE_MAP_MATCHER_H_
