#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <new>
#include <utility>
#include <vector>

namespace hybridgnn {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental FNV-1a so the payload checksum can be streamed over
/// meta + pads + tables without concatenating them.
uint64_t FnvMix(uint64_t h, const void* data, size_t length) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < length; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

size_t Align64(size_t offset) { return (offset + 63) & ~size_t{63}; }

template <typename T>
void AppendScalar(std::string& buf, T value) {
  buf.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendString(std::string& buf, const std::string& s) {
  AppendScalar<uint32_t>(buf, static_cast<uint32_t>(s.size()));
  buf.append(s);
}

/// Bounds-checked cursor over the metadata blob.
class MetaReader {
 public:
  MetaReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!Read(&len) || pos_ + len > size_) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool ReadNodeIds(size_t count, std::vector<NodeId>* out) {
    static_assert(sizeof(NodeId) == sizeof(uint32_t));
    // Divide instead of multiplying: count arrives straight from the file,
    // and count * 4 can wrap size_t on an adversarial header.
    if (count > (size_ - pos_) / sizeof(uint32_t)) return false;
    out->resize(count);
    std::memcpy(out->data(), data_ + pos_, count * sizeof(uint32_t));
    pos_ += count * sizeof(uint32_t);
    return true;
  }

  bool ReadFloats(size_t count, std::vector<float>* out) {
    if (count > (size_ - pos_) / sizeof(float)) return false;
    out->resize(count);
    std::memcpy(out->data(), data_ + pos_, count * sizeof(float));
    pos_ += count * sizeof(float);
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

struct ParsedRelation {
  std::string name;
  std::vector<NodeId> row_to_node;
  std::vector<float> scales;  // v2 int8 only
  std::vector<float> zeros;   // v2 int8 only
  size_t table_offset = 0;    // absolute file offset of the element table
};

struct ParsedCheckpoint {
  std::string model_name;
  uint64_t num_nodes = 0;
  uint64_t dim = 0;
  StoreDType dtype = StoreDType::kF32;
  std::vector<ParsedRelation> relations;
};

/// Validates header + metadata + checksums over the full file image and
/// fills `out` with the parsed structure (table offsets included). Shared by
/// both load modes, so every corruption class is caught identically whether
/// the bytes came from read() or mmap().
Status ParseCheckpoint(const uint8_t* data, size_t size,
                       ParsedCheckpoint* out) {
  if (size < kCheckpointHeaderBytes) {
    return Status::IoError("checkpoint truncated: " + std::to_string(size) +
                           " bytes is smaller than the 64-byte header");
  }
  if (std::memcmp(data, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return Status::InvalidArgument("bad magic: not a .hgc checkpoint");
  }
  uint16_t endian_tag = 0;
  std::memcpy(&endian_tag, data + 4, sizeof(endian_tag));
  if (endian_tag != kCheckpointEndianTag) {
    if (endian_tag == 0xFFFE) {
      return Status::FailedPrecondition(
          "checkpoint written on a host with opposite endianness");
    }
    return Status::InvalidArgument("corrupt endian tag");
  }
  uint16_t version = 0;
  std::memcpy(&version, data + 6, sizeof(version));
  if (version != kCheckpointVersion &&
      version != kCheckpointVersionQuantized) {
    return Status::FailedPrecondition(
        "checkpoint version skew: file has v" + std::to_string(version) +
        ", reader understands v" + std::to_string(kCheckpointVersion) +
        " (fp32) and v" + std::to_string(kCheckpointVersionQuantized) +
        " (int8)");
  }
  uint64_t num_relations = 0, num_nodes = 0, dim = 0, meta_bytes = 0,
           payload_bytes = 0, payload_checksum = 0, header_checksum = 0;
  std::memcpy(&num_relations, data + 8, 8);
  std::memcpy(&num_nodes, data + 16, 8);
  std::memcpy(&dim, data + 24, 8);
  std::memcpy(&meta_bytes, data + 32, 8);
  std::memcpy(&payload_bytes, data + 40, 8);
  std::memcpy(&payload_checksum, data + 48, 8);
  std::memcpy(&header_checksum, data + 56, 8);
  if (header_checksum != Fnv1a64(data, 56)) {
    return Status::IoError("header checksum mismatch");
  }
  if (size != kCheckpointHeaderBytes + payload_bytes) {
    return Status::IoError(
        "checkpoint truncated: header declares " +
        std::to_string(kCheckpointHeaderBytes + payload_bytes) +
        " bytes, file has " + std::to_string(size));
  }
  if (meta_bytes > payload_bytes) {
    return Status::IoError("corrupt metadata size");
  }
  if (payload_checksum !=
      Fnv1a64(data + kCheckpointHeaderBytes, payload_bytes)) {
    return Status::IoError("payload checksum mismatch");
  }

  // Bounds dim so the per-table byte math below cannot overflow size_t on
  // adversarial headers.
  if (dim == 0 || dim > (1u << 20)) {
    return Status::InvalidArgument("corrupt header: implausible dim " +
                                   std::to_string(dim));
  }
  // The writer refuses empty stores, so a zero here is corruption; catching
  // it in the shared parser keeps the copy and mmap paths consistent.
  if (num_relations == 0) {
    return Status::InvalidArgument("corrupt header: zero relations");
  }
  // NodeId is 32 bits and the store builds an O(num_nodes) index per
  // relation, so a wider node-id space cannot be honest and must not reach
  // the index allocation.
  if (num_nodes == 0 || num_nodes > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("corrupt header: implausible num_nodes " +
                                   std::to_string(num_nodes));
  }

  MetaReader meta(data + kCheckpointHeaderBytes, meta_bytes);
  out->dtype = StoreDType::kF32;
  if (version == kCheckpointVersionQuantized) {
    uint8_t dtype_byte = 0;
    if (!meta.Read(&dtype_byte)) {
      return Status::InvalidArgument("corrupt metadata: missing dtype");
    }
    // int8 is the only dtype the writer emits as v2, so treat every other
    // code as corruption.
    if (dtype_byte != static_cast<uint8_t>(StoreDType::kI8)) {
      return Status::InvalidArgument(
          "corrupt metadata: bad dtype code " + std::to_string(dtype_byte));
    }
    out->dtype = static_cast<StoreDType>(dtype_byte);
  }
  if (!meta.ReadString(&out->model_name)) {
    return Status::InvalidArgument("corrupt metadata: model name");
  }
  out->num_nodes = num_nodes;
  out->dim = dim;
  // Every relation record costs at least 4 (name length) + 8 (num_rows)
  // metadata bytes, so anything larger than meta_bytes / 12 cannot be
  // honest — and must not reach the resize below, where a forged 2^60
  // would abort on allocation instead of returning a Status.
  if (num_relations > meta_bytes / 12) {
    return Status::InvalidArgument(
        "corrupt header: num_relations inconsistent with metadata size");
  }
  out->relations.resize(num_relations);
  const size_t elem_bytes = StoreDTypeBytes(out->dtype);
  size_t offset = Align64(kCheckpointHeaderBytes + meta_bytes);
  for (auto& rel : out->relations) {
    uint64_t num_rows = 0;
    if (!meta.ReadString(&rel.name) || !meta.Read(&num_rows) ||
        !meta.ReadNodeIds(num_rows, &rel.row_to_node)) {
      return Status::InvalidArgument("corrupt metadata: relation record");
    }
    if (out->dtype == StoreDType::kI8 &&
        (!meta.ReadFloats(num_rows, &rel.scales) ||
         !meta.ReadFloats(num_rows, &rel.zeros))) {
      return Status::InvalidArgument("corrupt metadata: int8 affine record");
    }
    rel.table_offset = offset;
    if (num_rows > size / (dim * elem_bytes)) {
      return Status::IoError("checkpoint truncated: table out of bounds");
    }
    const size_t table_bytes = num_rows * dim * elem_bytes;
    if (rel.table_offset + table_bytes > size) {
      return Status::IoError("checkpoint truncated: table out of bounds");
    }
    offset = Align64(offset + table_bytes);
  }
  return Status::OK();
}

StatusOr<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff end = in.tellg();
  if (end < 0) return Status::IoError("cannot stat " + path);
  std::vector<uint8_t> bytes(static_cast<size_t>(end));
  in.seekg(0);
  if (!bytes.empty() &&
      !in.read(reinterpret_cast<char*>(bytes.data()), end)) {
    return Status::IoError("short read on " + path);
  }
  return bytes;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t length) {
  return FnvMix(kFnvOffset, data, length);
}

StatusOr<StoreDType> ParseStoreDType(const std::string& name) {
  if (name == "fp32") return StoreDType::kF32;
  if (name == "int8") return StoreDType::kI8;
  return Status::InvalidArgument("unknown store dtype '" + name +
                                 "' (want fp32 or int8)");
}

Status WriteCheckpoint(const EmbeddingStore& store, const std::string& path) {
  if (store.num_relations() == 0 || store.dim() == 0) {
    return Status::InvalidArgument("refusing to write an empty store");
  }
  const bool quantized = store.dtype() != StoreDType::kF32;
  // Raw bytes of relation `r`'s element table, whatever the dtype.
  auto table_bytes_of = [&store](RelationId r) -> std::span<const uint8_t> {
    if (store.dtype() == StoreDType::kF32) {
      const auto t = store.Table(r);
      return {reinterpret_cast<const uint8_t*>(t.data()), t.size_bytes()};
    }
    return store.RawTable(r);
  };

  // Metadata blob. The fp32 blob is byte-identical to the v1 writer's; the
  // quantized blob leads with the dtype code and carries the int8 affine
  // rows inline (checksummed with everything else).
  std::string meta;
  if (quantized) {
    AppendScalar<uint8_t>(meta, static_cast<uint8_t>(store.dtype()));
  }
  AppendString(meta, store.model_name());
  for (RelationId r = 0; r < store.num_relations(); ++r) {
    AppendString(meta, store.relation_name(r));
    AppendScalar<uint64_t>(meta, store.NumRows(r));
    const auto rows = store.RowNodes(r);
    meta.append(reinterpret_cast<const char*>(rows.data()),
                rows.size() * sizeof(NodeId));
    if (quantized) {
      const auto scales = store.RowScales(r);
      const auto zeros = store.RowZeros(r);
      meta.append(reinterpret_cast<const char*>(scales.data()),
                  scales.size_bytes());
      meta.append(reinterpret_cast<const char*>(zeros.data()),
                  zeros.size_bytes());
    }
  }

  // Payload checksum and total size, streamed over meta + pads + tables.
  static constexpr char kZeros[64] = {};
  uint64_t checksum = kFnvOffset;
  checksum = FnvMix(checksum, meta.data(), meta.size());
  size_t offset = kCheckpointHeaderBytes + meta.size();
  std::vector<size_t> pads;  // pad before each table, in relation order
  for (RelationId r = 0; r < store.num_relations(); ++r) {
    const size_t pad = Align64(offset) - offset;
    checksum = FnvMix(checksum, kZeros, pad);
    const auto table = table_bytes_of(r);
    checksum = FnvMix(checksum, table.data(), table.size());
    pads.push_back(pad);
    offset = Align64(offset) + table.size();
  }
  const uint64_t payload_bytes = offset - kCheckpointHeaderBytes;

  // Header.
  uint8_t header[kCheckpointHeaderBytes] = {};
  std::memcpy(header, kCheckpointMagic, sizeof(kCheckpointMagic));
  const uint16_t endian_tag = kCheckpointEndianTag;
  const uint16_t version =
      quantized ? kCheckpointVersionQuantized : kCheckpointVersion;
  std::memcpy(header + 4, &endian_tag, 2);
  std::memcpy(header + 6, &version, 2);
  const uint64_t num_relations = store.num_relations();
  const uint64_t num_nodes = store.num_nodes();
  const uint64_t dim = store.dim();
  const uint64_t meta_bytes = meta.size();
  std::memcpy(header + 8, &num_relations, 8);
  std::memcpy(header + 16, &num_nodes, 8);
  std::memcpy(header + 24, &dim, 8);
  std::memcpy(header + 32, &meta_bytes, 8);
  std::memcpy(header + 40, &payload_bytes, 8);
  std::memcpy(header + 48, &checksum, 8);
  const uint64_t header_checksum = Fnv1a64(header, 56);
  std::memcpy(header + 56, &header_checksum, 8);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
  for (RelationId r = 0; r < store.num_relations(); ++r) {
    out.write(kZeros, static_cast<std::streamsize>(pads[r]));
    const auto table = table_bytes_of(r);
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size()));
  }
  out.flush();
  if (!out) return Status::IoError("write failed on " + path);
  return Status::OK();
}

StatusOr<EmbeddingStore> BuildStore(const EmbeddingModel& model,
                                    const MultiplexHeteroGraph& graph,
                                    size_t num_threads) {
  if (graph.num_nodes() == 0 || graph.num_relations() == 0) {
    return Status::InvalidArgument(
        "cannot build a store from an empty graph");
  }
  std::vector<EmbeddingStore::TableInit> tables;
  tables.reserve(graph.num_relations());
  std::vector<NodeId> identity(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) identity[v] = v;
  for (RelationId r = 0; r < graph.num_relations(); ++r) {
    EmbeddingStore::TableInit t;
    t.name = graph.relation_name(r);
    t.row_to_node = identity;
    t.data = model.ExportRelationTable(graph.num_nodes(), r, num_threads);
    tables.push_back(std::move(t));
  }
  return EmbeddingStore::FromTables(model.name(), graph.num_nodes(),
                                    std::move(tables));
}

Status SaveCheckpoint(const EmbeddingModel& model,
                      const MultiplexHeteroGraph& graph,
                      const std::string& path, size_t num_threads) {
  HYBRIDGNN_ASSIGN_OR_RETURN(EmbeddingStore store,
                             BuildStore(model, graph, num_threads));
  return WriteCheckpoint(store, path);
}

StatusOr<EmbeddingStore> LoadCheckpoint(const std::string& path,
                                        LoadMode mode) try {
  if (mode == LoadMode::kCopy) {
    HYBRIDGNN_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                               ReadWholeFile(path));
    ParsedCheckpoint parsed;
    HYBRIDGNN_RETURN_IF_ERROR(
        ParseCheckpoint(bytes.data(), bytes.size(), &parsed));
    if (parsed.dtype == StoreDType::kF32) {
      std::vector<EmbeddingStore::TableInit> tables;
      tables.reserve(parsed.relations.size());
      for (auto& rel : parsed.relations) {
        EmbeddingStore::TableInit t;
        t.name = std::move(rel.name);
        const size_t num_rows = rel.row_to_node.size();
        t.row_to_node = std::move(rel.row_to_node);
        Tensor data(num_rows, parsed.dim);
        std::memcpy(data.data(), bytes.data() + rel.table_offset,
                    num_rows * parsed.dim * sizeof(float));
        t.data = std::move(data);
        tables.push_back(std::move(t));
      }
      return EmbeddingStore::FromTables(std::move(parsed.model_name),
                                        parsed.num_nodes, std::move(tables));
    }
    // Quantized: copy each raw payload into owned bytes; the parser already
    // pulled the int8 affine rows out of the metadata blob.
    EmbeddingStore store;
    store.model_name_ = std::move(parsed.model_name);
    store.num_nodes_ = parsed.num_nodes;
    store.dim_ = parsed.dim;
    store.dtype_ = parsed.dtype;
    const size_t elem_bytes = StoreDTypeBytes(parsed.dtype);
    store.tables_.reserve(parsed.relations.size());
    for (auto& rel : parsed.relations) {
      EmbeddingStore::RelationTable rt;
      rt.name = std::move(rel.name);
      rt.row_to_node = std::move(rel.row_to_node);
      const size_t rows = rt.row_to_node.size();
      const size_t table_bytes = rows * parsed.dim * elem_bytes;
      std::vector<uint8_t> payload(table_bytes);
      std::memcpy(payload.data(), bytes.data() + rel.table_offset,
                  table_bytes);
      store.owned_bytes_.push_back(std::move(payload));
      rt.qdata = std::span<const uint8_t>(store.owned_bytes_.back());
      std::vector<float> affine(std::move(rel.scales));
      affine.insert(affine.end(), rel.zeros.begin(), rel.zeros.end());
      store.owned_.push_back(std::move(affine));
      const float* a = store.owned_.back().data();
      rt.scales = std::span<const float>(a, rows);
      rt.zeros = std::span<const float>(a + rows, rows);
      HYBRIDGNN_RETURN_IF_ERROR(
          EmbeddingStore::IndexTable(rt, parsed.num_nodes));
      store.tables_.push_back(std::move(rt));
    }
    return store;
  }

  // LoadMode::kMmap — zero-copy.
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* base =
      size > 0 ? mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0) : nullptr;
  close(fd);  // the mapping keeps its own reference to the file
  if (size > 0 && base == MAP_FAILED) {
    return Status::IoError("mmap failed on " + path);
  }
  auto region = std::make_unique<MmapRegion>(base, size);
  const auto* data = static_cast<const uint8_t*>(region->base);
  ParsedCheckpoint parsed;
  HYBRIDGNN_RETURN_IF_ERROR(ParseCheckpoint(data, size, &parsed));

  EmbeddingStore store;
  store.model_name_ = std::move(parsed.model_name);
  store.num_nodes_ = parsed.num_nodes;
  store.dim_ = parsed.dim;
  store.dtype_ = parsed.dtype;
  store.tables_.reserve(parsed.relations.size());
  for (auto& rel : parsed.relations) {
    EmbeddingStore::RelationTable rt;
    rt.name = std::move(rel.name);
    rt.row_to_node = std::move(rel.row_to_node);
    const size_t rows = rt.row_to_node.size();
    if (parsed.dtype == StoreDType::kF32) {
      rt.data = std::span<const float>(
          reinterpret_cast<const float*>(data + rel.table_offset),
          rows * parsed.dim);
    } else {
      // int8 payloads are scanned straight off the map; the affine rows
      // live at unaligned metadata offsets, so those are the one thing the
      // zero-copy path still owns.
      rt.qdata = std::span<const uint8_t>(
          data + rel.table_offset,
          rows * parsed.dim * StoreDTypeBytes(parsed.dtype));
      std::vector<float> affine(std::move(rel.scales));
      affine.insert(affine.end(), rel.zeros.begin(), rel.zeros.end());
      store.owned_.push_back(std::move(affine));
      const float* a = store.owned_.back().data();
      rt.scales = std::span<const float>(a, rows);
      rt.zeros = std::span<const float>(a + rows, rows);
    }
    HYBRIDGNN_RETURN_IF_ERROR(
        EmbeddingStore::IndexTable(rt, parsed.num_nodes));
    store.tables_.push_back(std::move(rt));
  }
  store.mapping_ = std::move(region);
  return store;
} catch (const std::bad_alloc&) {
  // A header can pass every structural check and still describe a store
  // (say, 2^32 sparsely-covered nodes) whose index exceeds memory; that is
  // an I/O-level rejection, not a crash.
  return Status::IoError("checkpoint load exhausted memory on " + path);
}

}  // namespace hybridgnn
