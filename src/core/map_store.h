// Expert Map Store (§3.2, §4.4) and its search engine.
//
// Capacity-bounded store of historical iteration records — each an expert map plus the
// iteration's semantic embedding. Supports the two searches of §4.2 (semantic cosine over
// embeddings, trajectory cosine over map prefixes) and, when full, deduplicates on insert by
// the unified redundancy score RDY = (d/L)·score_sem + ((L−d)/L)·score_traj: the stored record
// most redundant with the incoming one is replaced, keeping the store diverse.
//
// Search engine layout (SoA index). Alongside the record list the store maintains a
// structure-of-arrays index that every search runs against:
//   * map_cols_        — the trajectory search matrix, layer-expert-major: column (l·J + j)
//                        holds map_i[l, j] for every record i, contiguously (column stride =
//                        capacity). A trajectory query touches exactly the columns of its
//                        observed layers, so both the one-shot prefix scan and the per-layer
//                        incremental extension are perfectly sequential streaming passes —
//                        row-major storage would read l·J useful floats per L·J-float row and
//                        stall on strided loads.
//   * emb_rows_        — one flat row-major float matrix of embeddings (stride = largest
//                        embedding dim seen; per-record true dims kept in emb_dims_).
//   * emb_norms_ / inv_emb_norms_          — precomputed ‖embedding_i‖ and its inverse.
//   * layer_sqnorms_ / inv_prefix_norms_   — the squared norm of every map layer (‖map_i[l]‖²)
//                        and the inverse norm of every map prefix (1/‖map_i[0..l)‖ for
//                        l = 0..L, from the running sum of the layer terms), layer-major like
//                        the columns: entry (l, i) at l·capacity + i, so a scan scoring every
//                        record at one prefix length reads one contiguous run. A requantized
//                        int8 column refreshes only its layer's terms. Inverses store 0 for
//                        zero norms, so scoring is a branch-free multiply that lands exactly
//                        on the zero-norm → 0 cosine convention.
// The column matrix is the store's only float copy of the maps: a per-record row (MapRow,
// persistence) is gathered from it on demand. Physically each map value costs 12 B at fp32 —
// the record's double (8 B) plus its column value (4 B) — while MemoryBytes() reports the 4 B
// of the searchable copy, the figure Fig. 16 sizes.
// With inverse norms precomputed, a cosine is one batched dot product plus one multiply — no
// sqrt or divide anywhere on the scan (AccumulateColumns / DotBatched / CosineAgainstRows in
// src/util/math.h). Per-row scores land in a row-ordered buffer and the argmax reduction runs
// over it afterwards, so ties go to the lowest index.
//
// Quantized column storage (DESIGN.md §5g). The trajectory matrix dominates store memory
// (map_dim · capacity values vs one embedding row per record), so it can optionally be held
// at reduced precision, chosen per store at construction:
//   * kFp32 — exact floats; the bitwise reference every golden report is pinned to.
//   * kFp16 — IEEE binary16 per value (2× smaller). Scans widen each value back to float
//     (exact), so a scan equals the fp32 scan over the half-rounded values bit for bit.
//   * kInt8 — per-column affine quantization (4× smaller): value ≈ scale_k · q + offset_k
//     with q in [0, 255]. Each column tracks a monotone-growing value range (with margin);
//     a value outside it triggers an O(size) requantization of that column from the exact
//     record data. Scans fold the per-column parameters into the query coefficients
//     (FoldQ8Coeffs) and run dequantize-free int32 accumulation — exact integer arithmetic.
// Only the column matrix is quantized: queries, embeddings, and the stored records stay
// exact. The prefix norms are computed from the *dequantized* values — exactly what the scans
// see — so cosine normalization stays consistent at any precision. The quantized
// precisions are tolerance-checked (not byte-exact) end to end; see golden_metrics_test.
//
// Incremental trajectory search. HybridMatcher re-matches a *growing* prefix; recomputing the
// cosine from scratch is O(l·J·N) per rematch, O(L²·J·N) per iteration. TrajectorySearchSession
// instead keeps one running dot product per record and extends it by only the newly observed
// layer — O(J·N) per ObserveLayer, O(L·J·N) per iteration — and consults the precomputed
// prefix norms at rematch time. Sessions watch the store's generation counter: any insert or
// clear invalidates the cached dots and the next call transparently rebuilds them (charging
// the full rebuild work to its flops).
//
// One column pass per iteration. When the iteration ends, its full map is inserted, and a full
// store then runs the RDY dedup, whose trajectory term dots that map against every record —
// the very columns, floats and products the session already streamed layer by layer. The
// partial sums cannot simply be reused, because the two scans round in different groups: the
// session flushes its float partials every 16 coefficients *of each layer* (restarting at
// every layer boundary, J = 60 or 8), while the one-shot RDY scan flushes every 16 columns of
// the *absolute* grid. So the session extends with AccumulateColumnsFused: every column value
// is loaded and multiplied once, and the product goes into both groupings — the per-layer one
// into the running dots, exactly as before, and the absolute-grid one into a per-record float
// partial that stays open across ObserveLayer calls and flushes into full-map dots. After all
// L layers those dots equal the one-shot RDY scan bit for bit, and Insert(record, session)
// uses them instead of scanning. Insert falls back to the scan whenever the session cannot
// vouch for them: it is stale (another batch slot inserted, or it rebuilt mid-iteration), it
// observed fewer than L layers (e.g. trajectory search disabled), its observed floats differ
// from the inserted map, the store is not fp32 (int8 folds coefficients per call; fp16 keeps
// the plain scan), or the store was not full with redundancy dedup when the iteration began
// (no dedup would follow, so the session does not track). Either way the modelled RDY cost —
// the flops Insert returns, which become kMapUpdate virtual seconds — is the full pass, so
// virtual time cannot move.
#ifndef FMOE_SRC_CORE_MAP_STORE_H_
#define FMOE_SRC_CORE_MAP_STORE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/expert_map.h"
#include "src/moe/model_config.h"
#include "src/util/math.h"

namespace fmoe {

struct StoredIteration {
  ExpertMap map;
  std::vector<double> embedding;  // Iteration-level semantic embedding.
  uint64_t request_id = 0;
  int iteration = 0;
};

// Replacement policy when the store is full: the paper's redundancy-score deduplication, or
// plain FIFO replacement (ablation baseline).
enum class StoreDedupPolicy {
  kRedundancy,
  kFifo,
};

// Storage precision of the trajectory search matrix (see the header comment). The numeric
// values are the on-disk codes of map_store_io (fp32 = 0 keeps old files byte-identical).
enum class MapPrecision : uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kInt8 = 2,
};

// "fp32" / "fp16" / "int8".
const char* MapPrecisionName(MapPrecision precision);
// Parses the names above; returns false (leaving `out` untouched) on anything else.
bool ParseMapPrecision(std::string_view text, MapPrecision* out);

struct SearchResult {
  bool found = false;
  size_t index = 0;     // Index within the owning shard (== global index for 1-shard stores).
  int shard = 0;        // Shard the record lives in (always 0 for a bare ExpertMapStore).
  double score = 0.0;   // Cosine similarity in [-1, 1].
  uint64_t flops = 0;   // Work the search performed (feeds the async-overhead model).
};

class TrajectorySearchSession;

class ExpertMapStore {
 public:
  ExpertMapStore(const ModelConfig& model, size_t capacity, int prefetch_distance,
                 StoreDedupPolicy dedup = StoreDedupPolicy::kRedundancy,
                 MapPrecision precision = MapPrecision::kFp32);

  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  const ModelConfig& model() const { return model_; }
  int prefetch_distance() const { return prefetch_distance_; }
  MapPrecision map_precision() const { return precision_; }
  StoreDedupPolicy dedup_policy() const { return dedup_; }
  const StoredIteration& Get(size_t index) const;

  // Inserts a record; when at capacity, replaces the most redundant existing record (by RDY).
  // Returns the work performed (0 flops while filling, one full RDY pass when deduplicating).
  // `session`, when given, is the session that observed this record's map on this store; its
  // full-map dots replace the RDY trajectory scan when it can vouch for them (see "One column
  // pass per iteration" above). The result — slot, flops, stored bytes — is identical either
  // way.
  uint64_t Insert(StoredIteration record, const TrajectorySearchSession* session = nullptr);

  // Highest-cosine record by iteration embedding (Eq. 4). Records whose embedding dimension
  // differs from the query are skipped and not charged.
  SearchResult SemanticSearch(std::span<const double> embedding) const;

  // Highest-cosine record by trajectory prefix of `prefix_layers` layers (Eq. 5). One-shot
  // form; use TrajectorySearchSession for the per-layer incremental path.
  SearchResult TrajectorySearch(std::span<const double> prefix, int prefix_layers) const;

  // CPU memory footprint of the searchable copy at the active precision (Fig. 16): map values
  // at 4/2/1 bytes, embeddings at fp32, plus the per-column scale/offset table for int8
  // stores. The records' exact doubles (Get) are not counted.
  size_t MemoryBytes() const;
  // Footprint the store would have at full capacity (for sizing tables).
  size_t MemoryBytesAtCapacity(int embedding_dim) const;

  void Clear();

  // ---- SoA search-engine views ----

  // Value of column k (= l·J + j) for record i as the scans see it: the float at fp32, the
  // widened half at fp16, offset_k + scale_k·q at int8.
  float ColumnValue(size_t k, size_t index) const;
  // Flattened map row of record i (L·J floats; layer l occupies [l·J, (l+1)·J)), gathered
  // from the column matrix: ColumnValue(k, i) for every k.
  std::vector<float> MapRow(size_t index) const;
  // Base pointer of the fp32 layer-expert-major search matrix: column k = l·J + j holds
  // map_i[l, j] for records i = 0..size(), with capacity() floats between consecutive
  // columns. Only populated when map_precision() == kFp32 (see ScanMapColumns for the
  // precision-independent scan entry point).
  const float* map_cols_data() const { return map_cols_.data(); }
  // The same matrix at the reduced precisions: binary16 bit patterns (kFp16 only) and affine
  // codes (kInt8 only), each with the column layout of map_cols_data().
  const uint16_t* map_cols16_data() const { return map_cols16_.data(); }
  const uint8_t* map_cols8_data() const { return map_cols8_.data(); }
  // Per-column affine parameters of the int8 matrix (value = scale_k·q + offset_k), indexed
  // by column k = l·J + j. Only populated when map_precision() == kInt8.
  const float* col_scales_data() const { return col_scales_.data(); }
  const float* col_offsets_data() const { return col_offsets_.data(); }
  // Row length of the map matrix: num_layers · experts_per_layer.
  int map_dim() const { return map_dim_; }
  // Precomputed 1/‖map_i[0..l)‖ lookup table, layer-major: entry (l, i) for l = 0..num_layers
  // lives at l·capacity() + i, and is 0 when the prefix has zero norm.
  const double* inv_prefix_norms_data() const { return inv_prefix_norms_.data(); }
  // Embedding row of record i (exactly the record's embedding dimension).
  std::span<const float> EmbeddingRow(size_t index) const;
  size_t EmbeddingDim(size_t index) const;
  double EmbeddingNorm(size_t index) const;
  // ‖map_i[0 .. prefix_layers)‖ from the precomputed running squared norms.
  double PrefixNorm(size_t index, int prefix_layers) const;

  // Precision-independent streaming scan over the column matrix:
  //   out[i] += Σ_k coeffs[k] · column(first_col + k)[record i],  i in [0, size())
  // with dequantized column semantics. For kInt8, `folded` must point at the result of
  // FoldQ8ScanCoeffs(coeffs, first_col, ...); other precisions ignore it (null is fine).
  void ScanMapColumns(std::span<const float> coeffs, size_t first_col, const Q8Coeffs* folded,
                      double* out) const;
  // Folds `coeffs` against the parameters of columns [first_col, first_col + coeffs.size()).
  // No-op unless map_precision() == kInt8. The scratch's buffer is reused across calls.
  void FoldQ8ScanCoeffs(std::span<const float> coeffs, size_t first_col,
                        Q8Coeffs* folded) const;

  // Bumped on every mutation (insert, replace, clear); lets sessions detect staleness.
  uint64_t generation() const { return generation_; }

 private:
  // Writes records_[slot] into the columns and the embedding matrix and computes its norms.
  void IndexRecord(size_t slot);
  // Sets record `slot`'s squared norm of `layer` from that layer's J dequantized values.
  void SetLayerNorm(size_t slot, int layer, std::span<const float> values);
  // Recomputes record `slot`'s inverse prefix norms from its layer norms.
  void RefreshInversePrefixNorms(size_t slot);
  // Recomputes every record's norm of each layer in dirty_layers_ from the column values and
  // clears the marks; returns whether any layer was marked.
  bool RecomputeDirtyLayerNorms();
  // Stores value v into column k of record `slot` (all precisions) and returns the
  // dequantized value the scans will see.
  float StoreColumnValue(size_t k, size_t slot, float v);
  // Widens column k's representable range to cover v (with margin) and re-encodes the column
  // for every record from the exact record data. Marks k's layer in dirty_layers_.
  void RequantizeColumn(size_t k, float v);
  // Widens the embedding matrix stride to at least `dim`, repacking existing rows.
  void GrowEmbeddingStride(size_t dim);

  ModelConfig model_;
  size_t capacity_;
  int prefetch_distance_;
  StoreDedupPolicy dedup_;
  MapPrecision precision_;
  size_t next_fifo_slot_ = 0;
  int map_dim_ = 0;  // num_layers * experts_per_layer.
  uint64_t generation_ = 0;
  // Layers whose norms an int8 column requantization invalidated. Only set inside
  // IndexRecord, which recomputes and clears them before it returns.
  std::vector<bool> dirty_layers_;

  std::vector<StoredIteration> records_;  // Record data + metadata (Get / persistence).

  // SoA search index; see the layout comment at the top of this header. Exactly one of the
  // three column matrices is allocated, per precision_ (fixed stride = capacity_).
  std::vector<float> map_cols_;         // kFp32: map_dim_ columns x capacity_.
  std::vector<uint16_t> map_cols16_;    // kFp16: binary16 bit patterns, same layout.
  std::vector<uint8_t> map_cols8_;      // kInt8: affine codes, same layout.
  std::vector<float> col_scales_;       // kInt8: per-column scale (map_dim_).
  std::vector<float> col_offsets_;      // kInt8: per-column offset (map_dim_).
  std::vector<float> col_range_lo_;     // kInt8: monotone-growing representable range.
  std::vector<float> col_range_hi_;
  std::vector<float> emb_rows_;         // size() x emb_stride_ (zero-padded).
  size_t emb_stride_ = 0;
  std::vector<size_t> emb_dims_;
  std::vector<double> emb_norms_;
  std::vector<double> inv_emb_norms_;
  std::vector<double> layer_sqnorms_;     // num_layers x capacity_: ‖map_i layer l‖².
  std::vector<double> inv_prefix_norms_;  // (num_layers + 1) x capacity_; 0 for zero norms.
};

// Stateful incremental trajectory search (§4.2) over a growing prefix.
//
// One session serves one inference iteration: Reset() at iteration start, ObserveLayer() per
// gate output (extends the running per-record dot products by the new layer), CurrentBest()
// whenever the matcher re-matches. Each call returns/reports the flops it actually performed,
// so the async-overhead model (Fig. 15) is charged for incremental — not recomputed — work.
// The session tolerates concurrent store mutation (other batch slots inserting records):
// a generation mismatch triggers a transparent full rebuild of the cached dots.
class TrajectorySearchSession {
 public:
  explicit TrajectorySearchSession(const ExpertMapStore* store);

  // Forgets the observed prefix and re-syncs with the store; call at iteration start.
  void Reset();

  // Extends the observed trajectory by one layer's gate distribution (J values). Returns the
  // flops performed: 2·J per record to extend the running dots (or a full-prefix rebuild when
  // the store changed underneath the session).
  uint64_t ObserveLayer(std::span<const double> probs);

  // Best-cosine record over the currently observed prefix. `flops` covers the score
  // normalization (3 per record) plus any rebuild this call had to perform.
  SearchResult CurrentBest();

  int observed_layers() const { return observed_layers_; }
  const ExpertMapStore* store() const { return store_; }

  // Per record, the dot of `map` (a full L·J float map) with the record's map row — bitwise
  // what the store's one-shot RDY scan of `map` computes. Empty unless this session observed
  // exactly `map`, all L layers, through the fused kernel, against the unchanged store.
  std::span<const double> FullMapDots(std::span<const float> map) const;

 private:
  bool IsStale() const;
  // Recomputes all running dots over the full observed prefix; returns the flops spent.
  uint64_t Rebuild();

  const ExpertMapStore* store_;  // Not owned.
  uint64_t generation_ = 0;
  int observed_layers_ = 0;
  std::vector<float> prefix_;    // Observed prefix, float-quantized like the stored rows.
  double prefix_sqnorm_ = 0.0;
  std::vector<double> dots_;     // Running dot(prefix, map row) per record.
  // Full-map dots for the RDY dedup of this iteration's insert. Tracked only when that insert
  // will dedup against an fp32 store (full at Reset, redundancy policy), and dropped for the
  // rest of the iteration by a rebuild.
  bool track_full_ = false;
  std::vector<float> open_partial_;  // Per record: the absolute-grid group still open.
  std::vector<double> full_dots_;    // Per record: flushed absolute-grid groups.
  Q8Coeffs q8_scratch_;          // Reused fold buffer (kInt8 stores only) — no steady-state
                                 // allocation after the first fold at a given prefix length.
};

}  // namespace fmoe

#endif  // FMOE_SRC_CORE_MAP_STORE_H_
