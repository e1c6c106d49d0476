#include "src/core/map_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/util/logging.h"
#include "src/util/math.h"

namespace fmoe {
namespace {

void UpdateBest(SearchResult* best, size_t index, double score) {
  if (!best->found || score > best->score) {  // Strict >: lowest index wins ties.
    best->found = true;
    best->index = index;
    best->score = score;
  }
}

std::vector<float> ToFloat(std::span<const double> values) {
  std::vector<float> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = static_cast<float>(values[i]);
  }
  return out;
}

uint8_t EncodeQ8(float v, float scale, float offset) {
  if (scale <= 0.0f) {
    return 0;  // Constant column: every value is `offset` exactly.
  }
  const float q = std::round((v - offset) / scale);
  return static_cast<uint8_t>(std::clamp(q, 0.0f, 255.0f));
}

}  // namespace

const char* MapPrecisionName(MapPrecision precision) {
  switch (precision) {
    case MapPrecision::kFp32:
      return "fp32";
    case MapPrecision::kFp16:
      return "fp16";
    case MapPrecision::kInt8:
      return "int8";
  }
  return "fp32";
}

bool ParseMapPrecision(std::string_view text, MapPrecision* out) {
  if (text == "fp32") {
    *out = MapPrecision::kFp32;
  } else if (text == "fp16") {
    *out = MapPrecision::kFp16;
  } else if (text == "int8") {
    *out = MapPrecision::kInt8;
  } else {
    return false;
  }
  return true;
}

ExpertMapStore::ExpertMapStore(const ModelConfig& model, size_t capacity, int prefetch_distance,
                               StoreDedupPolicy dedup, MapPrecision precision)
    : model_(model),
      capacity_(capacity),
      prefetch_distance_(prefetch_distance),
      dedup_(dedup),
      precision_(precision),
      map_dim_(model.num_layers * model.experts_per_layer) {
  FMOE_CHECK(capacity > 0);
  FMOE_CHECK(prefetch_distance >= 0 && prefetch_distance <= model.num_layers);
  records_.reserve(capacity);
  // The column matrix has a fixed stride of `capacity` values, so it is sized once up front;
  // slots past size() are never read (every scan is bounded by size()). Exactly one of the
  // three precision variants is allocated.
  const size_t cols = capacity * static_cast<size_t>(map_dim_);
  switch (precision_) {
    case MapPrecision::kFp32:
      map_cols_.resize(cols, 0.0f);
      break;
    case MapPrecision::kFp16:
      map_cols16_.resize(cols, 0);
      break;
    case MapPrecision::kInt8:
      map_cols8_.resize(cols, 0);
      // Ranges start collapsed at 0 (scale 0 == "column is constant 0"); the first nonzero
      // value in a column widens its range via RequantizeColumn, so each column's grid adapts
      // to that column's actual magnitude (hot-expert columns near 1, cold ones near 0).
      col_scales_.assign(static_cast<size_t>(map_dim_), 0.0f);
      col_offsets_.assign(static_cast<size_t>(map_dim_), 0.0f);
      col_range_lo_.assign(static_cast<size_t>(map_dim_), 0.0f);
      col_range_hi_.assign(static_cast<size_t>(map_dim_), 0.0f);
      break;
  }
  // The norm tables share the columns' fixed stride: row l holds every record's value for
  // layer l (squared norms) or for the prefix of l layers (inverse norms).
  const size_t layers = static_cast<size_t>(model.num_layers);
  layer_sqnorms_.resize(layers * capacity, 0.0);
  inv_prefix_norms_.resize((layers + 1) * capacity, 0.0);
  dirty_layers_.assign(layers, false);
}

const StoredIteration& ExpertMapStore::Get(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return records_[index];
}

float ExpertMapStore::ColumnValue(size_t k, size_t index) const {
  FMOE_CHECK(index < records_.size() && k < static_cast<size_t>(map_dim_));
  const size_t at = k * capacity_ + index;
  switch (precision_) {
    case MapPrecision::kFp32:
      return map_cols_[at];
    case MapPrecision::kFp16:
      return Fp16ToFloat(map_cols16_[at]);
    case MapPrecision::kInt8:
      return col_offsets_[k] + col_scales_[k] * static_cast<float>(map_cols8_[at]);
  }
  return 0.0f;
}

std::vector<float> ExpertMapStore::MapRow(size_t index) const {
  std::vector<float> row(static_cast<size_t>(map_dim_));
  for (size_t k = 0; k < row.size(); ++k) {
    row[k] = ColumnValue(k, index);
  }
  return row;
}

std::span<const float> ExpertMapStore::EmbeddingRow(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return std::span<const float>(emb_rows_.data() + index * emb_stride_, emb_dims_[index]);
}

size_t ExpertMapStore::EmbeddingDim(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return emb_dims_[index];
}

double ExpertMapStore::EmbeddingNorm(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return emb_norms_[index];
}

double ExpertMapStore::PrefixNorm(size_t index, int prefix_layers) const {
  FMOE_CHECK(index < records_.size());
  FMOE_CHECK(prefix_layers >= 0 && prefix_layers <= model_.num_layers);
  double sq = 0.0;
  for (int l = 0; l < prefix_layers; ++l) {
    sq += layer_sqnorms_[static_cast<size_t>(l) * capacity_ + index];
  }
  return std::sqrt(sq);
}

void ExpertMapStore::ScanMapColumns(std::span<const float> coeffs, size_t first_col,
                                    const Q8Coeffs* folded, double* out) const {
  FMOE_CHECK(first_col + coeffs.size() <= static_cast<size_t>(map_dim_));
  const size_t base = first_col * capacity_;
  const size_t n = records_.size();
  switch (precision_) {
    case MapPrecision::kFp32:
      AccumulateColumns(coeffs, map_cols_.data() + base, capacity_, n, out);
      break;
    case MapPrecision::kFp16:
      AccumulateColumnsF16(coeffs, map_cols16_.data() + base, capacity_, n, out);
      break;
    case MapPrecision::kInt8:
      FMOE_CHECK(folded != nullptr && folded->q.size() == coeffs.size());
      AccumulateColumnsQ8(*folded, map_cols8_.data() + base, capacity_, n, out);
      break;
  }
}

void ExpertMapStore::FoldQ8ScanCoeffs(std::span<const float> coeffs, size_t first_col,
                                      Q8Coeffs* folded) const {
  if (precision_ != MapPrecision::kInt8) {
    return;
  }
  FMOE_CHECK(first_col + coeffs.size() <= static_cast<size_t>(map_dim_));
  FoldQ8Coeffs(coeffs, col_scales_.data() + first_col, col_offsets_.data() + first_col,
               folded);
}

void ExpertMapStore::GrowEmbeddingStride(size_t dim) {
  if (dim <= emb_stride_) {
    return;
  }
  std::vector<float> repacked(records_.size() * dim, 0.0f);
  for (size_t i = 0; i < records_.size(); ++i) {
    std::copy_n(emb_rows_.data() + i * emb_stride_, emb_dims_[i], repacked.data() + i * dim);
  }
  emb_rows_ = std::move(repacked);
  emb_stride_ = dim;
}

void ExpertMapStore::RequantizeColumn(size_t k, float v) {
  // Widen monotonically with a 25% margin past the violating value, so a slowly creeping
  // column maximum triggers O(log) requantizations, not one per insert.
  float lo = std::min(col_range_lo_[k], v);
  float hi = std::max(col_range_hi_[k], v);
  const float margin = 0.25f * (hi - lo);
  if (v < col_range_lo_[k]) {
    lo = v - margin;
  }
  if (v > col_range_hi_[k]) {
    hi = v + margin;
  }
  col_range_lo_[k] = lo;
  col_range_hi_[k] = hi;
  const float scale = (hi - lo) / 255.0f;
  col_offsets_[k] = lo;
  col_scales_[k] = scale;
  // Re-encode the whole column from the exact record data (records_ keeps the original
  // doubles).
  for (size_t i = 0; i < records_.size(); ++i) {
    const std::span<const double> flat = records_[i].map.Flat();
    const float exact = flat.empty() ? 0.0f : static_cast<float>(flat[k]);
    map_cols8_[k * capacity_ + i] = EncodeQ8(exact, scale, lo);
  }
  // Every record's norm of this column's layer may have shifted; IndexRecord recomputes it.
  dirty_layers_[k / static_cast<size_t>(model_.experts_per_layer)] = true;
}

float ExpertMapStore::StoreColumnValue(size_t k, size_t slot, float v) {
  const size_t at = k * capacity_ + slot;
  switch (precision_) {
    case MapPrecision::kFp32:
      map_cols_[at] = v;
      break;
    case MapPrecision::kFp16:
      map_cols16_[at] = Fp16FromFloat(v);
      break;
    case MapPrecision::kInt8:
      if (v < col_range_lo_[k] || v > col_range_hi_[k]) {
        RequantizeColumn(k, v);
      }
      map_cols8_[at] = EncodeQ8(v, col_scales_[k], col_offsets_[k]);
      break;
  }
  return ColumnValue(k, slot);
}

void ExpertMapStore::SetLayerNorm(size_t slot, int layer, std::span<const float> values) {
  layer_sqnorms_[static_cast<size_t>(layer) * capacity_ + slot] = DotF(values, values);
}

void ExpertMapStore::RefreshInversePrefixNorms(size_t slot) {
  // Running prefix squared norms — ‖layers [0, l)‖² — inverted, with 0 standing in for 1/0 so
  // scan-time scoring is a branch-free multiply. Entry 0 is the empty prefix, 0 from
  // construction on.
  double sq = 0.0;
  for (int l = 0; l < model_.num_layers; ++l) {
    sq += layer_sqnorms_[static_cast<size_t>(l) * capacity_ + slot];
    inv_prefix_norms_[static_cast<size_t>(l + 1) * capacity_ + slot] =
        sq == 0.0 ? 0.0 : 1.0 / std::sqrt(sq);
  }
}

bool ExpertMapStore::RecomputeDirtyLayerNorms() {
  const size_t J = static_cast<size_t>(model_.experts_per_layer);
  std::vector<float> layer(J);
  bool any = false;
  for (int l = 0; l < model_.num_layers; ++l) {
    if (!dirty_layers_[static_cast<size_t>(l)]) {
      continue;
    }
    dirty_layers_[static_cast<size_t>(l)] = false;
    any = true;
    for (size_t i = 0; i < records_.size(); ++i) {
      for (size_t j = 0; j < J; ++j) {
        layer[j] = ColumnValue(static_cast<size_t>(l) * J + j, i);
      }
      SetLayerNorm(i, l, layer);
    }
  }
  return any;
}

void ExpertMapStore::IndexRecord(size_t slot) {
  const StoredIteration& record = records_[slot];
  const std::span<const double> flat = record.map.Flat();
  FMOE_CHECK_MSG(flat.empty() || flat.size() == static_cast<size_t>(map_dim_),
                 "map shape mismatch: record has " << flat.size() << " values, store expects "
                                                   << map_dim_);

  // Map (empty maps index as all-zero rows and never match anything), scattered into the
  // layer-major column matrix: column k of record `slot` lives at k·capacity + slot. Each
  // layer's norm is taken from the dequantized values StoreColumnValue actually stored.
  const size_t J = static_cast<size_t>(model_.experts_per_layer);
  std::vector<float> layer(J);
  for (int l = 0; l < model_.num_layers; ++l) {
    for (size_t j = 0; j < J; ++j) {
      const size_t k = static_cast<size_t>(l) * J + j;
      layer[j] = StoreColumnValue(k, slot, flat.empty() ? 0.0f : static_cast<float>(flat[k]));
    }
    SetLayerNorm(slot, l, layer);
  }

  if (RecomputeDirtyLayerNorms()) {
    // A column requantization rewrote its layer's dequantized values across all records.
    for (size_t i = 0; i < records_.size(); ++i) {
      RefreshInversePrefixNorms(i);
    }
  } else {
    RefreshInversePrefixNorms(slot);
  }

  // Embedding row + norm.
  const size_t dim = record.embedding.size();
  GrowEmbeddingStride(dim);
  emb_dims_[slot] = dim;
  float* erow = emb_rows_.data() + slot * emb_stride_;
  std::fill_n(erow, emb_stride_, 0.0f);
  for (size_t k = 0; k < dim; ++k) {
    erow[k] = static_cast<float>(record.embedding[k]);
  }
  emb_norms_[slot] =
      std::sqrt(DotF(std::span<const float>(erow, dim), std::span<const float>(erow, dim)));
  inv_emb_norms_[slot] = emb_norms_[slot] == 0.0 ? 0.0 : 1.0 / emb_norms_[slot];
}

uint64_t ExpertMapStore::Insert(StoredIteration record,
                                const TrajectorySearchSession* session) {
  if (records_.size() < capacity_) {
    ++generation_;
    records_.push_back(std::move(record));
    emb_rows_.resize(records_.size() * emb_stride_, 0.0f);
    emb_dims_.push_back(0);
    emb_norms_.push_back(0.0);
    inv_emb_norms_.push_back(0.0);
    IndexRecord(records_.size() - 1);
    return 0;
  }
  if (dedup_ == StoreDedupPolicy::kFifo) {
    ++generation_;
    records_[next_fifo_slot_] = std::move(record);
    IndexRecord(next_fifo_slot_);
    next_fifo_slot_ = (next_fifo_slot_ + 1) % capacity_;
    return 0;
  }

  // At capacity: one batched RDY pass to find the stored record most redundant with the
  // incoming one. RDY = (d/L)·cos_sem + ((L−d)/L)·cos_traj; embedding-dimension mismatches
  // contribute a semantic term of 0 (and are not charged).
  const size_t n = records_.size();
  const std::vector<float> map_query = ToFloat(record.map.Flat());
  const double map_qnorm = std::sqrt(DotF(map_query, map_query));
  const double inv_map_qnorm = map_qnorm == 0.0 ? 0.0 : 1.0 / map_qnorm;
  const double* inv_full_norms =
      inv_prefix_norms_.data() + static_cast<size_t>(model_.num_layers) * capacity_;
  const std::span<const double> session_dots =
      session != nullptr && session->store() == this ? session->FullMapDots(map_query)
                                                     : std::span<const double>();
  std::vector<double> trajectory(n, 0.0);
  if (session_dots.size() == n) {
    std::copy(session_dots.begin(), session_dots.end(), trajectory.begin());
  } else {
    Q8Coeffs folded;
    FoldQ8ScanCoeffs(map_query, 0, &folded);
    ScanMapColumns(map_query, 0, &folded, trajectory.data());
  }
  for (size_t i = 0; i < n; ++i) {
    trajectory[i] *= inv_map_qnorm * inv_full_norms[i];
  }

  const std::vector<float> emb_query = ToFloat(record.embedding);
  const double emb_qnorm = std::sqrt(DotF(emb_query, emb_query));
  const double inv_emb_qnorm = emb_qnorm == 0.0 ? 0.0 : 1.0 / emb_qnorm;
  std::vector<double> semantic(n, 0.0);
  uint64_t compared = 0;
  for (size_t i = 0; i < n; ++i) {
    if (emb_dims_[i] != emb_query.size()) {
      continue;
    }
    ++compared;
    semantic[i] = DotF(emb_query, EmbeddingRow(i)) * inv_emb_qnorm * inv_emb_norms_[i];
  }

  const double L = static_cast<double>(model_.num_layers);
  const double d = static_cast<double>(prefetch_distance_);
  size_t most_redundant = 0;
  double best_score = -2.0;
  for (size_t i = 0; i < n; ++i) {
    const double score = (d / L) * semantic[i] + ((L - d) / L) * trajectory[i];
    if (score > best_score) {
      best_score = score;
      most_redundant = i;
    }
  }
  const uint64_t flops = n * 2ULL * static_cast<uint64_t>(map_dim_) +
                         compared * 2ULL * record.embedding.size();
  ++generation_;  // Only now: `session` had to be read against the unchanged store.
  records_[most_redundant] = std::move(record);
  IndexRecord(most_redundant);
  return flops;
}

SearchResult ExpertMapStore::SemanticSearch(std::span<const double> embedding) const {
  SearchResult result;
  const size_t n = records_.size();
  if (n == 0) {
    return result;
  }
  const std::vector<float> query = ToFloat(embedding);
  const double qnorm = std::sqrt(DotF(query, query));
  const double inv_qnorm = qnorm == 0.0 ? 0.0 : 1.0 / qnorm;

  // Fast path: every record matches the query dimension — one batched strided pass.
  const bool uniform =
      std::all_of(emb_dims_.begin(), emb_dims_.end(),
                  [&](size_t dim) { return dim == query.size(); });
  std::vector<double> scores(n, 0.0);
  uint64_t compared = 0;
  if (uniform) {
    compared = n;
    CosineAgainstRows(query, inv_qnorm, emb_rows_.data(), emb_stride_, n, inv_emb_norms_.data(),
                      scores.data());
    for (size_t i = 0; i < n; ++i) {
      UpdateBest(&result, i, scores[i]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (emb_dims_[i] != query.size()) {
        continue;  // Skipped records are not compared and not charged.
      }
      ++compared;
      UpdateBest(&result, i, DotF(query, EmbeddingRow(i)) * inv_qnorm * inv_emb_norms_[i]);
    }
  }
  result.flops = compared * 2ULL * embedding.size();
  return result;
}

SearchResult ExpertMapStore::TrajectorySearch(std::span<const double> prefix,
                                              int prefix_layers) const {
  FMOE_CHECK(prefix.size() == static_cast<size_t>(prefix_layers) *
                                  static_cast<size_t>(model_.experts_per_layer));
  SearchResult result;
  const size_t n = records_.size();
  if (n == 0) {
    return result;
  }
  const std::vector<float> query = ToFloat(prefix);
  const double qnorm = std::sqrt(DotF(query, query));
  const double inv_qnorm = qnorm == 0.0 ? 0.0 : 1.0 / qnorm;
  const double* inv_norms =
      inv_prefix_norms_.data() + static_cast<size_t>(prefix_layers) * capacity_;
  Q8Coeffs folded;
  FoldQ8ScanCoeffs(query, 0, &folded);
  std::vector<double> scores(n, 0.0);
  // The prefix touches columns [0, prefix_layers·J) of the layer-major matrix — one fully
  // sequential streaming pass, independent of the full map width.
  ScanMapColumns(query, 0, &folded, scores.data());
  for (size_t i = 0; i < n; ++i) {
    scores[i] *= inv_qnorm * inv_norms[i];
  }
  for (size_t i = 0; i < n; ++i) {
    UpdateBest(&result, i, scores[i]);
  }
  result.flops = n * 2ULL * prefix.size();
  return result;
}

size_t ExpertMapStore::MemoryBytes() const {
  size_t map_value_bytes = sizeof(float);
  switch (precision_) {
    case MapPrecision::kFp32:
      map_value_bytes = sizeof(float);
      break;
    case MapPrecision::kFp16:
      map_value_bytes = sizeof(uint16_t);
      break;
    case MapPrecision::kInt8:
      map_value_bytes = sizeof(uint8_t);
      break;
  }
  size_t bytes = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    bytes += static_cast<size_t>(map_dim_) * map_value_bytes + emb_dims_[i] * sizeof(float);
  }
  if (precision_ == MapPrecision::kInt8 && !records_.empty()) {
    bytes += 2 * static_cast<size_t>(map_dim_) * sizeof(float);  // Scale/offset tables.
  }
  return bytes;
}

size_t ExpertMapStore::MemoryBytesAtCapacity(int embedding_dim) const {
  size_t map_value_bytes = sizeof(float);
  switch (precision_) {
    case MapPrecision::kFp32:
      map_value_bytes = sizeof(float);
      break;
    case MapPrecision::kFp16:
      map_value_bytes = sizeof(uint16_t);
      break;
    case MapPrecision::kInt8:
      map_value_bytes = sizeof(uint8_t);
      break;
  }
  const size_t per_record =
      static_cast<size_t>(map_dim_) * map_value_bytes +
      static_cast<size_t>(embedding_dim) * sizeof(float);
  size_t bytes = capacity_ * per_record;
  if (precision_ == MapPrecision::kInt8) {
    bytes += 2 * static_cast<size_t>(map_dim_) * sizeof(float);
  }
  return bytes;
}

void ExpertMapStore::Clear() {
  ++generation_;
  records_.clear();
  // The column matrices keep their fixed capacity-stride allocations; stale slots are never
  // read because every scan is bounded by size(). Quantization ranges reset so a reused store
  // re-adapts its per-column grids to the new data.
  if (precision_ == MapPrecision::kInt8) {
    std::fill(col_scales_.begin(), col_scales_.end(), 0.0f);
    std::fill(col_offsets_.begin(), col_offsets_.end(), 0.0f);
    std::fill(col_range_lo_.begin(), col_range_lo_.end(), 0.0f);
    std::fill(col_range_hi_.begin(), col_range_hi_.end(), 0.0f);
  }
  emb_rows_.clear();
  emb_stride_ = 0;
  emb_dims_.clear();
  emb_norms_.clear();
  inv_emb_norms_.clear();
  next_fifo_slot_ = 0;
}

// ---- TrajectorySearchSession ----

TrajectorySearchSession::TrajectorySearchSession(const ExpertMapStore* store) : store_(store) {
  FMOE_CHECK(store != nullptr);
  prefix_.reserve(static_cast<size_t>(store->map_dim()));
  Reset();
}

void TrajectorySearchSession::Reset() {
  observed_layers_ = 0;
  prefix_.clear();
  prefix_sqnorm_ = 0.0;
  generation_ = store_->generation();
  dots_.assign(store_->size(), 0.0);
  track_full_ = store_->map_precision() == MapPrecision::kFp32 &&
                store_->dedup_policy() == StoreDedupPolicy::kRedundancy &&
                store_->size() == store_->capacity();
  const size_t tracked = track_full_ ? store_->size() : 0;
  open_partial_.assign(tracked, 0.0f);
  full_dots_.assign(tracked, 0.0);
}

bool TrajectorySearchSession::IsStale() const {
  return generation_ != store_->generation();
}

uint64_t TrajectorySearchSession::Rebuild() {
  const size_t n = store_->size();
  dots_.assign(n, 0.0);
  generation_ = store_->generation();
  track_full_ = false;  // The store changed under this iteration; its insert rescans.
  if (n == 0 || prefix_.empty()) {
    return 0;
  }
  store_->FoldQ8ScanCoeffs(prefix_, 0, &q8_scratch_);
  store_->ScanMapColumns(prefix_, 0, &q8_scratch_, dots_.data());
  return n * 2ULL * prefix_.size();
}

uint64_t TrajectorySearchSession::ObserveLayer(std::span<const double> probs) {
  const int J = store_->model().experts_per_layer;
  FMOE_CHECK_MSG(probs.size() == static_cast<size_t>(J),
                 "gate distribution has " << probs.size() << " entries, expected " << J);
  FMOE_CHECK(observed_layers_ < store_->model().num_layers);
  const size_t offset = prefix_.size();
  prefix_.resize(offset + static_cast<size_t>(J));
  for (int j = 0; j < J; ++j) {
    prefix_[offset + static_cast<size_t>(j)] = static_cast<float>(probs[static_cast<size_t>(j)]);
  }
  const std::span<const float> block(prefix_.data() + offset, static_cast<size_t>(J));
  prefix_sqnorm_ += DotF(block, block);
  ++observed_layers_;

  if (IsStale()) {
    return Rebuild();
  }
  const size_t n = store_->size();
  if (n == 0) {
    return 0;
  }
  // Extend each record's running dot by only the newly observed layer: the layer's J values
  // occupy columns [offset, offset + J) of the layer-major matrix, so this is J contiguous
  // sequential column passes — a few microseconds even at a 4096-record store.
  if (track_full_) {
    const size_t stride = store_->capacity();
    AccumulateColumnsFused(block, store_->map_cols_data() + offset * stride, stride, n, offset,
                           static_cast<size_t>(store_->map_dim()), dots_.data(),
                           open_partial_.data(), full_dots_.data());
  } else {
    store_->FoldQ8ScanCoeffs(block, offset, &q8_scratch_);
    store_->ScanMapColumns(block, offset, &q8_scratch_, dots_.data());
  }
  return n * 2ULL * static_cast<uint64_t>(J);
}

std::span<const double> TrajectorySearchSession::FullMapDots(std::span<const float> map) const {
  const bool complete =
      track_full_ && !IsStale() && observed_layers_ == store_->model().num_layers;
  if (!complete || map.size() != prefix_.size() ||
      std::memcmp(map.data(), prefix_.data(), map.size() * sizeof(float)) != 0) {
    return {};
  }
  return full_dots_;
}

SearchResult TrajectorySearchSession::CurrentBest() {
  SearchResult result;
  uint64_t flops = 0;
  if (IsStale()) {
    flops = Rebuild();
  }
  const size_t n = store_->size();
  if (n == 0 || observed_layers_ == 0) {
    result.flops = flops;
    return result;
  }
  const double qnorm = std::sqrt(prefix_sqnorm_);
  const double inv_qnorm = qnorm == 0.0 ? 0.0 : 1.0 / qnorm;
  const double* inv_norms = store_->inv_prefix_norms_data() +
                            static_cast<size_t>(observed_layers_) * store_->capacity();
  for (size_t i = 0; i < n; ++i) {
    UpdateBest(&result, i, dots_[i] * inv_qnorm * inv_norms[i]);
  }
  result.flops = flops + 3ULL * n;  // Norm product, scale, compare per record.
  return result;
}

}  // namespace fmoe
