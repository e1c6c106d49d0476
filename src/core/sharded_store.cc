#include "src/core/sharded_store.h"

#include <mutex>
#include <utility>

#include "src/util/logging.h"

namespace fmoe {
namespace {

// Strict-`>` reduce in shard order: lowest (shard, index) wins score ties, matching the
// per-row UpdateBest rule inside each shard.
void MergeShardResult(SearchResult* best, int shard, const SearchResult& candidate) {
  best->flops += candidate.flops;
  if (candidate.found && (!best->found || candidate.score > best->score)) {
    best->found = true;
    best->shard = shard;
    best->index = candidate.index;
    best->score = candidate.score;
  }
}

}  // namespace

ShardedMapStore::ShardedMapStore(const ModelConfig& model, size_t capacity,
                                 int prefetch_distance, StoreDedupPolicy dedup,
                                 MapPrecision precision, int num_shards, uint64_t router_seed)
    : router_(num_shards, router_seed) {
  FMOE_CHECK(num_shards >= 1);
  FMOE_CHECK(capacity > 0);
  const size_t s = static_cast<size_t>(num_shards);
  shards_.reserve(s);
  mutexes_.reserve(s);
  // Split the budget evenly, remainder to the low shard ids, floor of one record per shard
  // (an over-sharded tiny store degrades to 1-record shards rather than aborting).
  const size_t base = capacity / s;
  const size_t remainder = capacity % s;
  for (size_t i = 0; i < s; ++i) {
    size_t shard_capacity = base + (i < remainder ? 1 : 0);
    if (shard_capacity == 0) {
      shard_capacity = 1;
    }
    shards_.push_back(std::make_unique<ExpertMapStore>(model, shard_capacity,
                                                       prefetch_distance, dedup, precision));
    mutexes_.push_back(std::make_unique<std::shared_mutex>());
  }
}

size_t ShardedMapStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->size();
  }
  return total;
}

size_t ShardedMapStore::capacity() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->capacity();
  }
  return total;
}

size_t ShardedMapStore::MemoryBytes() const {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock<std::shared_mutex> lock(*mutexes_[s]);
    total += shards_[s]->MemoryBytes();
  }
  return total;
}

int ShardedMapStore::RouteEmbedding(std::span<const double> embedding) const {
  return router_.Route(embedding);
}

ShardInsertResult ShardedMapStore::Insert(StoredIteration record,
                                          const ShardedTrajectorySession* session) {
  ShardInsertResult result;
  result.shard = router_.Route(record.embedding);
  const size_t target = static_cast<size_t>(result.shard);
  std::unique_lock<std::shared_mutex> lock(*mutexes_[target]);
  result.flops = shards_[target]->Insert(
      std::move(record), session != nullptr ? &session->shard_session(result.shard) : nullptr);
  return result;
}

SearchResult ShardedMapStore::SemanticSearch(std::span<const double> embedding) const {
  SearchResult best;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock<std::shared_mutex> lock(*mutexes_[s]);
    MergeShardResult(&best, static_cast<int>(s), shards_[s]->SemanticSearch(embedding));
  }
  return best;
}

const StoredIteration& ShardedMapStore::Get(int shard, size_t index) const {
  FMOE_CHECK(shard >= 0 && shard < num_shards());
  return shards_[static_cast<size_t>(shard)]->Get(index);
}

const StoredIteration& ShardedMapStore::Get(size_t global_index) const {
  for (const auto& shard : shards_) {
    if (global_index < shard->size()) {
      return shard->Get(global_index);
    }
    global_index -= shard->size();
  }
  FMOE_CHECK_MSG(false, "global index out of range");
  return shards_.front()->Get(0);  // Unreachable; silences the return-path warning.
}

void ShardedMapStore::Clear() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::unique_lock<std::shared_mutex> lock(*mutexes_[s]);
    shards_[s]->Clear();
  }
}

// ---- ShardedTrajectorySession ----

ShardedTrajectorySession::ShardedTrajectorySession(const ShardedMapStore* store)
    : store_(store) {
  FMOE_CHECK(store != nullptr);
  sessions_.reserve(static_cast<size_t>(store->num_shards()));
  for (int s = 0; s < store->num_shards(); ++s) {
    std::shared_lock<std::shared_mutex> lock(store->shard_mutex(s));
    sessions_.emplace_back(&store->shard(s));
  }
}

void ShardedTrajectorySession::Reset() {
  observed_layers_ = 0;
  for (size_t s = 0; s < sessions_.size(); ++s) {
    std::shared_lock<std::shared_mutex> lock(store_->shard_mutex(static_cast<int>(s)));
    sessions_[s].Reset();
  }
}

uint64_t ShardedTrajectorySession::ObserveLayer(std::span<const double> probs) {
  uint64_t flops = 0;
  // Shard order: flops accumulate deterministically, and a shard whose generation moved
  // rebuilds only its own dots (n_s·2·prefix) — untouched shards extend incrementally.
  for (size_t s = 0; s < sessions_.size(); ++s) {
    std::shared_lock<std::shared_mutex> lock(store_->shard_mutex(static_cast<int>(s)));
    flops += sessions_[s].ObserveLayer(probs);
  }
  ++observed_layers_;
  return flops;
}

SearchResult ShardedTrajectorySession::CurrentBest() {
  SearchResult best;
  for (size_t s = 0; s < sessions_.size(); ++s) {
    std::shared_lock<std::shared_mutex> lock(store_->shard_mutex(static_cast<int>(s)));
    MergeShardResult(&best, static_cast<int>(s), sessions_[s].CurrentBest());
  }
  return best;
}

}  // namespace fmoe
