// Semantic-cluster sharding of the Expert Map Store (DESIGN.md §5i).
//
// The monolithic ExpertMapStore has a single generation counter: any insert invalidates every
// live TrajectorySearchSession and forces a full prefix rebuild, so B concurrent matcher
// sessions serialize on whichever slot inserted last. ShardedMapStore splits the store into S
// ExpertMapStore shards keyed by a consistent hash of the record's semantic embedding
// (SemanticShardRouter): records from one semantic cluster concentrate in one shard, each
// shard keeps its own SoA columns and its own generation counter, and an insert into shard A
// never touches shard B — sessions scanning B keep their cached dots.
//
// Determinism contract (the shard-major reduce). Every search scans shards in ascending shard
// id and reduces with the same strict-`>` rule the row scan uses, so the winner is the
// lowest-(shard, index) record among score ties and results are independent of thread count.
// With S == 1 every call delegates to the single shard with the full capacity — bitwise
// identical to the pre-shard ExpertMapStore at every precision (pinned by map_shard_test).
//
// Concurrency. Each shard carries a shared_mutex: Insert takes the target shard's lock
// exclusively, searches and session reads take it shared. Cross-shard consistency is not a
// goal (and not needed — searches are heuristics over historical data); the locks exist so
// concurrent matcher sessions and inserters are race-free under TSan, not to provide a global
// snapshot. Lock scope is one shard per acquisition and the shards are independent, so there
// is no lock ordering to violate.
#ifndef FMOE_SRC_CORE_SHARDED_STORE_H_
#define FMOE_SRC_CORE_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "src/core/map_store.h"
#include "src/core/shard_router.h"
#include "src/moe/model_config.h"

namespace fmoe {

class ShardedTrajectorySession;

struct ShardInsertResult {
  int shard = 0;        // Shard the router sent the record to.
  uint64_t flops = 0;   // Work the shard's insert performed (ExpertMapStore::Insert).
};

class ShardedMapStore {
 public:
  // `capacity` is the total record budget, split evenly across shards (remainder to the
  // lowest shard ids, floor of 1 record per shard). `seed` fixes the router's hyperplanes
  // and ring; the same seed must be used to reload a store file into the same layout.
  ShardedMapStore(const ModelConfig& model, size_t capacity, int prefetch_distance,
                  StoreDedupPolicy dedup = StoreDedupPolicy::kRedundancy,
                  MapPrecision precision = MapPrecision::kFp32, int num_shards = 1,
                  uint64_t router_seed = 0);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ExpertMapStore& shard(int s) { return *shards_[static_cast<size_t>(s)]; }
  const ExpertMapStore& shard(int s) const { return *shards_[static_cast<size_t>(s)]; }

  // Aggregates over all shards.
  size_t size() const;
  size_t capacity() const;
  size_t MemoryBytes() const;

  const ModelConfig& model() const { return shards_.front()->model(); }
  int prefetch_distance() const { return shards_.front()->prefetch_distance(); }
  MapPrecision map_precision() const { return shards_.front()->map_precision(); }
  int map_dim() const { return shards_.front()->map_dim(); }
  const SemanticShardRouter& router() const { return router_; }

  // Shard the router assigns to `embedding` (what Insert will use).
  int RouteEmbedding(std::span<const double> embedding) const;

  // Routes the record to its semantic shard and inserts there (dedup, if any, is per shard —
  // the RDY pass only scans the target shard). `session`, when given, is the inserting slot's
  // session for this iteration; the target shard's session stands in for the RDY scan where
  // it can (ExpertMapStore::Insert).
  ShardInsertResult Insert(StoredIteration record,
                           const ShardedTrajectorySession* session = nullptr);

  // Best record across all shards; result.shard/result.index locate it. Shards are scanned
  // in ascending id and reduced with strict `>`, so ties go to the lowest (shard, index).
  SearchResult SemanticSearch(std::span<const double> embedding) const;

  const StoredIteration& Get(int shard, size_t index) const;
  // Shard-major global indexing (shard 0's records, then shard 1's, ...): the view tests,
  // the inspector example, and persistence iterate. Global indices shift as shards fill, so
  // hold no global index across an Insert.
  const StoredIteration& Get(size_t global_index) const;

  uint64_t generation(int s) const { return shards_[static_cast<size_t>(s)]->generation(); }

  void Clear();

  // Shard s's reader-writer lock. Sessions (and any out-of-band reader) take it shared;
  // Insert/Clear take it exclusive. Exposed so ShardedTrajectorySession can pair its cached
  // state with the same lock instance the store's own mutators use.
  std::shared_mutex& shard_mutex(int s) const { return *mutexes_[static_cast<size_t>(s)]; }

 private:
  SemanticShardRouter router_;
  std::vector<std::unique_ptr<ExpertMapStore>> shards_;
  mutable std::vector<std::unique_ptr<std::shared_mutex>> mutexes_;
};

// Per-shard incremental trajectory search: one TrajectorySearchSession per shard, each
// watching its own shard's generation. An insert into shard A leaves every other shard's
// cached dots valid — the next ObserveLayer rebuilds A's dots only (n_A·2·prefix flops
// instead of n·2·prefix), which is the whole point of sharding (see map_shard_test's
// shard-invariance property). The shard-major reduce in CurrentBest keeps results bitwise
// identical to the monolithic session at S == 1.
class ShardedTrajectorySession {
 public:
  explicit ShardedTrajectorySession(const ShardedMapStore* store);

  void Reset();
  uint64_t ObserveLayer(std::span<const double> probs);
  SearchResult CurrentBest();
  int observed_layers() const { return observed_layers_; }
  const TrajectorySearchSession& shard_session(int s) const {
    return sessions_[static_cast<size_t>(s)];
  }

 private:
  const ShardedMapStore* store_;  // Not owned.
  std::vector<TrajectorySearchSession> sessions_;  // One per shard, in shard order.
  int observed_layers_ = 0;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CORE_SHARDED_STORE_H_
