#ifndef HYBRIDGNN_SERVE_EMBEDDING_STORE_H_
#define HYBRIDGNN_SERVE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "graph/types.h"
#include "tensor/tensor.h"

namespace hybridgnn {

class EmbeddingStore;

/// How LoadCheckpoint materializes tables (defined in serve/checkpoint.h;
/// forward-declared here for the friend declaration below).
enum class LoadMode : int;
StatusOr<EmbeddingStore> LoadCheckpoint(const std::string& path,
                                        LoadMode mode);

/// Element type of an EmbeddingStore's table payload. Training always
/// produces kF32; kI8 exists for the serving tier, where candidate tables
/// are scanned by the dequant-and-score kernel (kernels::ScoreBlockI8) at
/// 4x less memory traffic than fp32. The values are the .hgc v2 dtype byte.
enum class StoreDType : uint8_t {
  kF32 = 0,
  /// Per-row affine uint8: element q of row i dequantizes as
  /// zero[i] + scale[i] * q, with scale = (max-min)/255 and zero = min over
  /// the row (scale 0 for constant rows).
  kI8 = 2,
};

/// "fp32" / "int8".
const char* StoreDTypeName(StoreDType t);
/// Payload bytes per element: 4 / 1.
size_t StoreDTypeBytes(StoreDType t);

/// RAII wrapper around one read-only file mapping. Owned by an
/// EmbeddingStore loaded in zero-copy mode; unmapped on destruction, so the
/// store's spans stay valid exactly as long as the store lives.
struct MmapRegion {
  MmapRegion(void* base, size_t length) : base(base), length(length) {}
  ~MmapRegion();

  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  void* base = nullptr;
  size_t length = 0;
};

/// Immutable collection of per-relationship frozen embedding tables — the
/// serving-side counterpart of a fitted EmbeddingModel. Each relationship r
/// holds a num_rows(r) x dim matrix plus a node-id <-> row mapping (tables
/// need not cover every node). Backing storage is either owned heap memory
/// (LoadMode::kCopy, FromTables) or a borrowed mmap region
/// (LoadMode::kMmap); either way the data is read-only after construction,
/// so lookups are safe from any number of threads.
class EmbeddingStore {
 public:
  /// Sentinel in the node -> row index meaning "node absent from table".
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// One relationship's table for in-memory construction: `data` is
  /// row_to_node.size() x dim; row i holds the embedding of node
  /// row_to_node[i].
  struct TableInit {
    std::string name;
    std::vector<NodeId> row_to_node;
    Tensor data;
  };

  /// Builds an owning store from materialized tables, taking over their
  /// buffers. All tables must share one dim; row counts must match the
  /// mappings; node ids must be unique within a table and < num_nodes. The
  /// result is always kF32.
  static StatusOr<EmbeddingStore> FromTables(std::string model_name,
                                             size_t num_nodes,
                                             std::vector<TableInit> tables);

  /// Hands back the tables FromTables took over, in relation order, so a
  /// caller can reuse their buffers; the store must not be read afterwards.
  std::vector<Tensor> ReleaseTables() && { return std::move(owned_tables_); }

  /// Builds an owning kI8 copy of a kF32 store. Quantization is per row
  /// (affine min/max), deterministic, and independent of thread count.
  static StatusOr<EmbeddingStore> Quantized(const EmbeddingStore& src);

  EmbeddingStore(const EmbeddingStore&) = delete;
  EmbeddingStore& operator=(const EmbeddingStore&) = delete;
  EmbeddingStore(EmbeddingStore&&) = default;
  EmbeddingStore& operator=(EmbeddingStore&&) = default;

  const std::string& model_name() const { return model_name_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_relations() const { return tables_.size(); }
  size_t dim() const { return dim_; }
  /// Element type of every table payload in this store.
  StoreDType dtype() const { return dtype_; }
  /// True when backed by a file mapping instead of owned memory.
  bool mmapped() const { return mapping_ != nullptr; }

  const std::string& relation_name(RelationId r) const {
    return tables_[r].name;
  }
  /// Id of a relation by name, or kInvalidRelation.
  RelationId FindRelation(const std::string& name) const;

  size_t NumRows(RelationId r) const { return tables_[r].row_to_node.size(); }
  /// Node id stored at `row` of relation `r`'s table.
  NodeId RowNode(RelationId r, size_t row) const {
    return tables_[r].row_to_node[row];
  }
  /// Row index of node `v` in relation `r`'s table, or kNoRow.
  uint32_t RowOf(NodeId v, RelationId r) const {
    const auto& idx = tables_[r].node_to_row;
    return v < idx.size() ? idx[v] : kNoRow;
  }

  /// Pointer to node `v`'s dim-length embedding under `r`, or nullptr when
  /// `r` is out of range, the table does not cover `v`, or the store is
  /// quantized (use DequantizeRow then).
  const float* Lookup(NodeId v, RelationId r) const {
    if (dtype_ != StoreDType::kF32 || r >= tables_.size()) return nullptr;
    const uint32_t row = RowOf(v, r);
    if (row == kNoRow) return nullptr;
    return tables_[r].data.data() + static_cast<size_t>(row) * dim_;
  }

  /// The whole num_rows x dim table of relation `r`, row-major. Only
  /// populated for kF32 stores (empty span when quantized).
  std::span<const float> Table(RelationId r) const { return tables_[r].data; }
  /// Raw quantized payload of relation `r`: num_rows * dim elements of
  /// StoreDTypeBytes(dtype()) each (u8 codes for kI8). Empty for kF32
  /// stores.
  std::span<const uint8_t> RawTable(RelationId r) const {
    return tables_[r].qdata;
  }
  /// Per-row dequantization scales / zero points of relation `r` (kI8
  /// only; empty otherwise).
  std::span<const float> RowScales(RelationId r) const {
    return tables_[r].scales;
  }
  std::span<const float> RowZeros(RelationId r) const {
    return tables_[r].zeros;
  }

  /// Materializes table row `row` of relation `r` (NOT a node id — see
  /// RowOf) as dim() floats into `out`, whatever the dtype. For kF32 this
  /// is a copy; for kI8 it applies the dequantization the scoring
  /// kernels use, so a dequantized row scores identically to the in-place
  /// quantized scan.
  void DequantizeRow(RelationId r, uint32_t row, float* out) const;

  /// Row -> node mapping of relation `r`.
  std::span<const NodeId> RowNodes(RelationId r) const {
    return tables_[r].row_to_node;
  }

 private:
  friend StatusOr<EmbeddingStore> LoadCheckpoint(const std::string&,
                                                 LoadMode);

  struct RelationTable {
    std::string name;
    std::span<const float> data;       // kF32: num_rows * dim floats
    std::span<const uint8_t> qdata;    // kI8: raw quantized payload
    std::span<const float> scales;     // kI8: per-row scale
    std::span<const float> zeros;      // kI8: per-row zero point
    std::vector<NodeId> row_to_node;   // row -> node id
    std::vector<uint32_t> node_to_row; // node id -> row or kNoRow
  };

  EmbeddingStore() = default;

  /// Builds node_to_row from row_to_node; fails on duplicate or
  /// out-of-range node ids.
  static Status IndexTable(RelationTable& table, size_t num_nodes);

  std::string model_name_;
  size_t num_nodes_ = 0;
  size_t dim_ = 0;
  StoreDType dtype_ = StoreDType::kF32;
  std::vector<RelationTable> tables_;
  std::vector<Tensor> owned_tables_;       // FromTables' f32 tables
  std::vector<std::vector<float>> owned_;  // i8 scales/zeros
  std::vector<std::vector<uint8_t>> owned_bytes_;  // quantized payloads
  std::unique_ptr<MmapRegion> mapping_;    // backing storage in mmap mode
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SERVE_EMBEDDING_STORE_H_
