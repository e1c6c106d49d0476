#include "src/core/map_store_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/util/math.h"

namespace fmoe {
namespace {

// Host-endian format; the magic doubles as an endianness canary (a byte-swapped reader sees a
// different magic and refuses the file).
constexpr char kMagic[8] = {'F', 'M', 'O', 'E', 'S', 'T', 'R', '1'};

// Multi-shard wrapper format: this magic, a uint32 shard count, then one legacy single-store
// blob per shard. 1-shard stores write the legacy format directly (byte-identical).
constexpr char kShardMagic[8] = {'F', 'M', 'O', 'E', 'S', 'H', 'R', 'D'};

// `map_precision` holds the MapPrecision code of the map payload (fp32 = 0, fp16 = 1,
// int8 = 2). The field was a zero-initialized `reserved` slot before quantized stores
// existed, so fp32 files are byte-identical to the original format and old files load as
// fp32 unchanged.
struct StoreHeader {
  char magic[8];
  uint32_t num_layers = 0;
  uint32_t experts_per_layer = 0;
  uint32_t embedding_dim = 0;
  uint32_t map_precision = 0;
  uint64_t record_count = 0;
};

template <typename T>
bool WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// Embeddings (and the int8 scale/offset tables) are contiguous float rows in the store —
// exactly the on-disk layout — so they are written raw, with no conversion buffer.
bool WriteFloats(std::ostream& out, std::span<const float> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
  return static_cast<bool>(out);
}

bool ReadFloats(std::istream& in, size_t count, std::vector<double>* values) {
  std::vector<float> buffer(count);
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) {
    return false;
  }
  values->assign(buffer.begin(), buffer.end());
  return true;
}

size_t MapValueBytes(MapPrecision precision) {
  switch (precision) {
    case MapPrecision::kFp32:
      return sizeof(float);
    case MapPrecision::kFp16:
      return sizeof(uint16_t);
    case MapPrecision::kInt8:
      return sizeof(uint8_t);
  }
  return sizeof(float);
}

// Writes record `index`'s map payload at the store's precision — floats, binary16 bit
// patterns or int8 codes — gathered straight from the column matrix, so the file holds
// exactly the values the scans compare.
template <typename T>
bool WriteColumnRow(std::ostream& out, const T* cols, const ExpertMapStore& store, size_t index,
                    std::vector<uint8_t>* scratch) {
  const size_t map_dim = static_cast<size_t>(store.map_dim());
  scratch->resize(map_dim * sizeof(T));
  for (size_t k = 0; k < map_dim; ++k) {
    std::memcpy(scratch->data() + k * sizeof(T), cols + k * store.capacity() + index, sizeof(T));
  }
  out.write(reinterpret_cast<const char*>(scratch->data()),
            static_cast<std::streamsize>(scratch->size()));
  return static_cast<bool>(out);
}

bool WriteMapRow(std::ostream& out, const ExpertMapStore& store, size_t index,
                 std::vector<uint8_t>* scratch) {
  switch (store.map_precision()) {
    case MapPrecision::kFp32:
      return WriteColumnRow(out, store.map_cols_data(), store, index, scratch);
    case MapPrecision::kFp16:
      return WriteColumnRow(out, store.map_cols16_data(), store, index, scratch);
    case MapPrecision::kInt8:
      return WriteColumnRow(out, store.map_cols8_data(), store, index, scratch);
  }
  return false;
}

// Decodes one map row of `count` values at the file's precision into doubles. For int8,
// `scales`/`offsets` are the per-column tables read from the file prologue.
bool ReadMapRow(std::istream& in, MapPrecision precision, size_t count,
                const std::vector<float>& scales, const std::vector<float>& offsets,
                std::vector<double>* values) {
  if (precision == MapPrecision::kFp32) {
    return ReadFloats(in, count, values);
  }
  if (precision == MapPrecision::kFp16) {
    std::vector<uint16_t> buffer(count);
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(count * sizeof(uint16_t)));
    if (!in) {
      return false;
    }
    values->resize(count);
    for (size_t k = 0; k < count; ++k) {
      (*values)[k] = static_cast<double>(Fp16ToFloat(buffer[k]));
    }
    return true;
  }
  std::vector<uint8_t> buffer(count);
  in.read(reinterpret_cast<char*>(buffer.data()), static_cast<std::streamsize>(count));
  if (!in) {
    return false;
  }
  values->resize(count);
  for (size_t k = 0; k < count; ++k) {
    (*values)[k] = static_cast<double>(offsets[k]) +
                   static_cast<double>(scales[k]) * static_cast<double>(buffer[k]);
  }
  return true;
}

}  // namespace

StoreIoResult SaveStore(const ExpertMapStore& store, std::ostream& out) {
  const ModelConfig& model = store.model();
  StoreHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.num_layers = static_cast<uint32_t>(model.num_layers);
  header.experts_per_layer = static_cast<uint32_t>(model.experts_per_layer);
  header.embedding_dim =
      store.size() > 0 ? static_cast<uint32_t>(store.EmbeddingDim(0)) : 0;
  header.map_precision = static_cast<uint32_t>(store.map_precision());
  header.record_count = store.size();

  // All records must share the embedding dimension for a fixed record layout.
  for (size_t i = 0; i < store.size(); ++i) {
    if (store.EmbeddingDim(i) != header.embedding_dim) {
      return StoreIoResult::Failure("records have inconsistent embedding dimensions");
    }
  }
  if (!WritePod(out, header)) {
    return StoreIoResult::Failure("failed to write header");
  }

  StoreIoResult result;
  result.bytes = sizeof(header);
  const size_t map_dim = static_cast<size_t>(store.map_dim());
  if (store.map_precision() == MapPrecision::kInt8) {
    // int8 prologue: the per-column scale/offset tables the record payloads decode against.
    const std::span<const float> scales(store.col_scales_data(), map_dim);
    const std::span<const float> offsets(store.col_offsets_data(), map_dim);
    if (!WriteFloats(out, scales) || !WriteFloats(out, offsets)) {
      return StoreIoResult::Failure("failed to write quantization tables");
    }
    result.bytes += 2 * map_dim * sizeof(float);
  }
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < store.size(); ++i) {
    const uint64_t request_id = store.Get(i).request_id;
    const int32_t iteration = store.Get(i).iteration;
    if (!WritePod(out, request_id) || !WritePod(out, iteration) ||
        !WriteMapRow(out, store, i, &scratch) || !WriteFloats(out, store.EmbeddingRow(i))) {
      return StoreIoResult::Failure("failed to write record " + std::to_string(i));
    }
    result.bytes += sizeof(request_id) + sizeof(iteration) +
                    map_dim * MapValueBytes(store.map_precision()) +
                    store.EmbeddingRow(i).size() * sizeof(float);
    ++result.records;
  }
  return result;
}

// Parses one legacy single-store stream into `staged` (no inserts). Shared by the plain and
// sharded loaders, which differ only in where the decoded records are re-inserted.
static StoreIoResult ParseStoreStream(std::istream& in, const ModelConfig& model,
                                      std::vector<StoredIteration>* staged) {
  StoreHeader header;
  if (!ReadPod(in, &header)) {
    return StoreIoResult::Failure("failed to read header");
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return StoreIoResult::Failure("bad magic (not an fMoE store file, or wrong endianness)");
  }
  if (header.map_precision > static_cast<uint32_t>(MapPrecision::kInt8)) {
    return StoreIoResult::Failure("unknown map precision code " +
                                  std::to_string(header.map_precision));
  }
  const MapPrecision file_precision = static_cast<MapPrecision>(header.map_precision);
  if (header.num_layers != static_cast<uint32_t>(model.num_layers) ||
      header.experts_per_layer != static_cast<uint32_t>(model.experts_per_layer)) {
    std::ostringstream message;
    message << "model shape mismatch: file has " << header.num_layers << "x"
            << header.experts_per_layer << ", store expects " << model.num_layers << "x"
            << model.experts_per_layer;
    return StoreIoResult::Failure(message.str());
  }

  const size_t map_size = static_cast<size_t>(model.num_layers) *
                          static_cast<size_t>(model.experts_per_layer);
  StoreIoResult result;
  result.bytes = sizeof(header);
  std::vector<float> scales;
  std::vector<float> offsets;
  if (file_precision == MapPrecision::kInt8) {
    std::vector<double> table;
    if (!ReadFloats(in, map_size, &table)) {
      return StoreIoResult::Failure("truncated quantization scale table");
    }
    scales.assign(table.begin(), table.end());
    if (!ReadFloats(in, map_size, &table)) {
      return StoreIoResult::Failure("truncated quantization offset table");
    }
    offsets.assign(table.begin(), table.end());
    result.bytes += 2 * map_size * sizeof(float);
  }
  // Parse into the staging buffer first so a truncated file leaves the store untouched.
  // Records decode to exact doubles and re-insert through the normal path, so the destination
  // store's own precision — which may differ from the file's — re-quantizes as needed.
  staged->reserve(staged->size() + static_cast<size_t>(header.record_count));
  for (uint64_t i = 0; i < header.record_count; ++i) {
    uint64_t request_id = 0;
    int32_t iteration = 0;
    std::vector<double> map_values;
    std::vector<double> embedding;
    if (!ReadPod(in, &request_id) || !ReadPod(in, &iteration) ||
        !ReadMapRow(in, file_precision, map_size, scales, offsets, &map_values) ||
        !ReadFloats(in, header.embedding_dim, &embedding)) {
      return StoreIoResult::Failure("truncated file at record " + std::to_string(i));
    }
    StoredIteration record;
    record.request_id = request_id;
    record.iteration = iteration;
    record.embedding = std::move(embedding);
    record.map = ExpertMap(model.num_layers, model.experts_per_layer);
    for (int layer = 0; layer < model.num_layers; ++layer) {
      record.map.SetLayer(layer,
                          std::span<const double>(map_values).subspan(
                              static_cast<size_t>(layer) *
                                  static_cast<size_t>(model.experts_per_layer),
                              static_cast<size_t>(model.experts_per_layer)));
    }
    result.bytes += sizeof(request_id) + sizeof(iteration) +
                    map_size * MapValueBytes(file_precision) +
                    header.embedding_dim * sizeof(float);
    staged->push_back(std::move(record));
  }
  return result;
}

// Inserts every staged record into `store` and counts them into `result`. Loaders call this
// only once the whole stream has parsed, so a failed load leaves the store untouched.
template <typename Store>
static StoreIoResult InsertStaged(std::vector<StoredIteration>& staged, StoreIoResult result,
                           Store* store) {
  for (StoredIteration& record : staged) {
    store->Insert(std::move(record));
    ++result.records;
  }
  return result;
}

StoreIoResult LoadStore(std::istream& in, ExpertMapStore* store) {
  std::vector<StoredIteration> staged;
  const StoreIoResult result = ParseStoreStream(in, store->model(), &staged);
  if (!result.ok) {
    return result;
  }
  return InsertStaged(staged, result, store);
}

StoreIoResult SaveStore(const ShardedMapStore& store, std::ostream& out) {
  if (store.num_shards() == 1) {
    return SaveStore(store.shard(0), out);  // Legacy format, byte-identical.
  }
  if (!out.write(kShardMagic, sizeof(kShardMagic))) {
    return StoreIoResult::Failure("failed to write shard magic");
  }
  const uint32_t shard_count = static_cast<uint32_t>(store.num_shards());
  if (!WritePod(out, shard_count)) {
    return StoreIoResult::Failure("failed to write shard count");
  }
  StoreIoResult total;
  total.bytes = sizeof(kShardMagic) + sizeof(shard_count);
  for (int s = 0; s < store.num_shards(); ++s) {
    const StoreIoResult blob = SaveStore(store.shard(s), out);
    if (!blob.ok) {
      return blob;
    }
    total.records += blob.records;
    total.bytes += blob.bytes;
  }
  return total;
}

StoreIoResult LoadStore(std::istream& in, ShardedMapStore* store) {
  const std::istream::pos_type start = in.tellg();
  char magic[sizeof(kShardMagic)];
  if (!in.read(magic, sizeof(magic))) {
    return StoreIoResult::Failure("failed to read magic");
  }
  // Records re-insert through the destination's semantic routing, so the file's shard count
  // and the store's need not match — resharding happens on load.
  std::vector<StoredIteration> staged;
  StoreIoResult total;
  if (std::memcmp(magic, kShardMagic, sizeof(magic)) == 0) {
    uint32_t shard_count = 0;
    if (!ReadPod(in, &shard_count)) {
      return StoreIoResult::Failure("truncated shard count");
    }
    total.bytes = sizeof(magic) + sizeof(shard_count);
    // Every blob stages before any record inserts: a file cut in its last blob fails whole.
    for (uint32_t s = 0; s < shard_count; ++s) {
      const StoreIoResult blob = ParseStoreStream(in, store->model(), &staged);
      if (!blob.ok) {
        return blob;
      }
      total.bytes += blob.bytes;
    }
  } else {
    // Legacy single-store file: rewind and parse it whole (ParseStoreStream re-validates the
    // legacy magic).
    in.clear();
    in.seekg(start);
    if (!in) {
      return StoreIoResult::Failure("stream does not support rewinding");
    }
    total = ParseStoreStream(in, store->model(), &staged);
    if (!total.ok) {
      return total;
    }
  }
  return InsertStaged(staged, total, store);
}

StoreIoResult SaveStoreToFile(const ExpertMapStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return StoreIoResult::Failure("cannot open " + path + " for writing");
  }
  return SaveStore(store, out);
}

StoreIoResult LoadStoreFromFile(const std::string& path, ExpertMapStore* store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return StoreIoResult::Failure("cannot open " + path + " for reading");
  }
  return LoadStore(in, store);
}

StoreIoResult SaveStoreToFile(const ShardedMapStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return StoreIoResult::Failure("cannot open " + path + " for writing");
  }
  return SaveStore(store, out);
}

StoreIoResult LoadStoreFromFile(const std::string& path, ShardedMapStore* store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return StoreIoResult::Failure("cannot open " + path + " for reading");
  }
  return LoadStore(in, store);
}

}  // namespace fmoe
