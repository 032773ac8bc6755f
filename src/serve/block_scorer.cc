#include "serve/block_scorer.h"

#include <cassert>
#include <cstring>

#include "kernels/kernels.h"

namespace hybridgnn {

BlockScorer::BlockScorer(const EmbeddingStore* store, RelationId rel,
                         const float* query)
    : store_(store),
      dtype_(store->dtype()),
      dim_(store->dim()),
      num_rows_(store->NumRows(rel)),
      query_(query) {
  switch (dtype_) {
    case StoreDType::kF32:
      table_ = store->Table(rel).data();
      break;
    case StoreDType::kI8:
      qtable_ = store->RawTable(rel).data();
      scales_ = store->RowScales(rel).data();
      zeros_ = store->RowZeros(rel).data();
      // ScoreBlockI8 folds the per-row affine into the dot with one
      // query-element sum, computed once per query.
      for (size_t j = 0; j < dim_; ++j) query_sum_ += query_[j];
      break;
  }
}

void BlockScorer::ScoreRange(size_t base, size_t count, double* out) const {
  switch (dtype_) {
    case StoreDType::kF32:
      kernels::ScoreBlock(query_, table_ + base * dim_, count, dim_, out);
      return;
    case StoreDType::kI8:
      kernels::ScoreBlockI8(query_, qtable_ + base * dim_, scales_ + base,
                            zeros_ + base, query_sum_, count, dim_, out);
      return;
  }
}

void BlockScorer::ScoreRows(const uint32_t* rows, size_t count, double* out) {
  assert(count <= kBlockRows);
  switch (dtype_) {
    case StoreDType::kF32: {
      if (gather_f32_.empty()) gather_f32_.resize(kBlockRows * dim_);
      float* dst = gather_f32_.data();
      for (size_t i = 0; i < count; ++i) {
        std::memcpy(dst + i * dim_, table_ + static_cast<size_t>(rows[i]) * dim_,
                    dim_ * sizeof(float));
      }
      kernels::ScoreBlock(query_, dst, count, dim_, out);
      return;
    }
    case StoreDType::kI8: {
      if (gather_bytes_.empty()) {
        gather_bytes_.resize(kBlockRows * dim_);
        gather_scales_.resize(kBlockRows);
        gather_zeros_.resize(kBlockRows);
      }
      uint8_t* dst = gather_bytes_.data();
      for (size_t i = 0; i < count; ++i) {
        const size_t row = rows[i];
        std::memcpy(dst + i * dim_, qtable_ + row * dim_, dim_);
        gather_scales_[i] = scales_[row];
        gather_zeros_[i] = zeros_[row];
      }
      kernels::ScoreBlockI8(query_, dst, gather_scales_.data(),
                            gather_zeros_.data(), query_sum_, count, dim_,
                            out);
      return;
    }
  }
}

}  // namespace hybridgnn
