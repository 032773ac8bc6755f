#include "serve/embedding_store.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace hybridgnn {

MmapRegion::~MmapRegion() {
  if (base != nullptr && length > 0) munmap(base, length);
}

const char* StoreDTypeName(StoreDType t) {
  switch (t) {
    case StoreDType::kF32:
      return "fp32";
    case StoreDType::kI8:
      return "int8";
  }
  return "unknown";
}

size_t StoreDTypeBytes(StoreDType t) {
  switch (t) {
    case StoreDType::kF32:
      return 4;
    case StoreDType::kI8:
      return 1;
  }
  return 0;
}

Status EmbeddingStore::IndexTable(RelationTable& table, size_t num_nodes) {
  table.node_to_row.assign(num_nodes, kNoRow);
  for (size_t row = 0; row < table.row_to_node.size(); ++row) {
    const NodeId v = table.row_to_node[row];
    if (v >= num_nodes) {
      return Status::InvalidArgument(
          "table '" + table.name + "': node id " + std::to_string(v) +
          " out of range (num_nodes=" + std::to_string(num_nodes) + ")");
    }
    if (table.node_to_row[v] != kNoRow) {
      return Status::InvalidArgument("table '" + table.name +
                                     "': duplicate node id " +
                                     std::to_string(v));
    }
    table.node_to_row[v] = static_cast<uint32_t>(row);
  }
  return Status::OK();
}

StatusOr<EmbeddingStore> EmbeddingStore::FromTables(
    std::string model_name, size_t num_nodes, std::vector<TableInit> tables) {
  EmbeddingStore store;
  store.model_name_ = std::move(model_name);
  store.num_nodes_ = num_nodes;
  size_t dim = 0;
  for (const auto& t : tables) {
    if (t.data.rows() != t.row_to_node.size()) {
      return Status::InvalidArgument(
          "table '" + t.name + "': " + std::to_string(t.data.rows()) +
          " rows but " + std::to_string(t.row_to_node.size()) +
          " node mappings");
    }
    if (dim == 0) dim = t.data.cols();
    if (t.data.cols() != dim && t.data.rows() > 0) {
      return Status::InvalidArgument("table '" + t.name +
                                     "': dim mismatch across relations");
    }
  }
  if (dim == 0) {
    return Status::InvalidArgument("embedding store needs dim > 0");
  }
  store.dim_ = dim;
  store.tables_.reserve(tables.size());
  store.owned_tables_.reserve(tables.size());
  for (auto& t : tables) {
    RelationTable rt;
    rt.name = std::move(t.name);
    rt.row_to_node = std::move(t.row_to_node);
    const Tensor& data = store.owned_tables_.emplace_back(std::move(t.data));
    rt.data = std::span<const float>(data.data(), data.size());
    HYBRIDGNN_RETURN_IF_ERROR(IndexTable(rt, num_nodes));
    store.tables_.push_back(std::move(rt));
  }
  return store;
}

StatusOr<EmbeddingStore> EmbeddingStore::Quantized(
    const EmbeddingStore& src) {
  if (src.dtype_ != StoreDType::kF32) {
    return Status::InvalidArgument(
        "quantization source must be an fp32 store (got " +
        std::string(StoreDTypeName(src.dtype_)) + ")");
  }
  EmbeddingStore store;
  store.model_name_ = src.model_name_;
  store.num_nodes_ = src.num_nodes_;
  store.dim_ = src.dim_;
  store.dtype_ = StoreDType::kI8;
  const size_t dim = src.dim_;
  store.tables_.reserve(src.tables_.size());
  for (const RelationTable& in : src.tables_) {
    RelationTable rt;
    rt.name = in.name;
    rt.row_to_node = in.row_to_node;
    rt.node_to_row = in.node_to_row;
    const size_t rows = in.row_to_node.size();
    const float* data = in.data.data();
    // Per-row affine min/max. Scales then zeros, back to back in one owned
    // float buffer.
    std::vector<uint8_t> bytes(rows * dim);
    std::vector<float> affine(2 * rows);
    for (size_t i = 0; dim > 0 && i < rows; ++i) {
      const float* row = data + i * dim;
      float lo = row[0], hi = row[0];
      for (size_t j = 1; j < dim; ++j) {
        lo = std::min(lo, row[j]);
        hi = std::max(hi, row[j]);
      }
      const float scale = (hi - lo) / 255.0f;
      affine[i] = scale;
      affine[rows + i] = lo;
      uint8_t* q = bytes.data() + i * dim;
      if (scale == 0.0f) {
        std::memset(q, 0, dim);  // constant row: dequant == zero point
        continue;
      }
      const float inv = 255.0f / (hi - lo);
      for (size_t j = 0; j < dim; ++j) {
        const float scaled = (row[j] - lo) * inv;
        q[j] = static_cast<uint8_t>(std::lrintf(
            std::min(255.0f, std::max(0.0f, scaled))));
      }
    }
    store.owned_bytes_.push_back(std::move(bytes));
    store.owned_.push_back(std::move(affine));
    rt.qdata = std::span<const uint8_t>(store.owned_bytes_.back());
    const float* a = store.owned_.back().data();
    rt.scales = std::span<const float>(a, rows);
    rt.zeros = std::span<const float>(a + rows, rows);
    store.tables_.push_back(std::move(rt));
  }
  return store;
}

void EmbeddingStore::DequantizeRow(RelationId r, uint32_t row,
                                   float* out) const {
  const RelationTable& t = tables_[r];
  switch (dtype_) {
    case StoreDType::kF32:
      std::memcpy(out, t.data.data() + static_cast<size_t>(row) * dim_,
                  dim_ * sizeof(float));
      return;
    case StoreDType::kI8: {
      const uint8_t* q = t.qdata.data() + static_cast<size_t>(row) * dim_;
      const float scale = t.scales[row];
      const float zero = t.zeros[row];
      for (size_t j = 0; j < dim_; ++j) {
        out[j] = zero + scale * static_cast<float>(q[j]);
      }
      return;
    }
  }
}

RelationId EmbeddingStore::FindRelation(const std::string& name) const {
  for (size_t r = 0; r < tables_.size(); ++r) {
    if (tables_[r].name == name) return static_cast<RelationId>(r);
  }
  return kInvalidRelation;
}

}  // namespace hybridgnn
