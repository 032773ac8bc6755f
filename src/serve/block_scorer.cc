#include "serve/block_scorer.h"

#include <algorithm>

#include "kernels/kernels.h"

namespace hybridgnn {

BlockScorer::BlockScorer(const EmbeddingStore* store, RelationId rel,
                         const float* query)
    : dtype_(store->dtype()),
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
  uint32_t ids[kBlockRows];
  for (size_t done = 0; done < count; done += kBlockRows) {
    const size_t n = std::min(kBlockRows, count - done);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>(base + done + i);
    }
    ScoreRows(ids, n, out + done);
  }
}

void BlockScorer::ScoreRows(const uint32_t* rows, size_t count,
                            double* out) const {
  switch (dtype_) {
    case StoreDType::kF32:
      kernels::ScoreBlock(query_, table_, rows, count, dim_, out);
      return;
    case StoreDType::kI8:
      kernels::ScoreBlockI8(query_, qtable_, scales_, zeros_, query_sum_,
                            rows, count, dim_, out);
      return;
  }
}

}  // namespace hybridgnn
