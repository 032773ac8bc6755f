#include "nn/embedding.h"

#include "tensor/init.h"

namespace hybridgnn {

EmbeddingTable::EmbeddingTable(size_t num_rows, size_t dim, Rng& rng) {
  Tensor t(num_rows, dim);
  EmbeddingInit(t, rng);
  table_ = ag::Param(std::move(t));
  RegisterParameter(table_);
}

ag::Var EmbeddingTable::Forward(const std::vector<int32_t>& indices) const {
  return ag::GatherRows(table_, indices);
}

ag::Var EmbeddingTable::ForwardNodes(const std::vector<NodeId>& nodes) const {
  // Reused per-thread scratch for the NodeId -> int32 widening; GatherRows
  // copies the span into the op, so the buffer is free to be overwritten
  // by the next call.
  static thread_local std::vector<int32_t> idx;
  idx.assign(nodes.begin(), nodes.end());
  return ag::GatherRows(table_, std::span<const int32_t>(idx));
}

}  // namespace hybridgnn
