#ifndef HYBRIDGNN_SERVE_BLOCK_SCORER_H_
#define HYBRIDGNN_SERVE_BLOCK_SCORER_H_

#include <cstdint>

#include "serve/embedding_store.h"

namespace hybridgnn {

/// Per-query scorer over one relation's table of an EmbeddingStore,
/// dispatching to whichever ScoreBlock kernel matches the store's dtype
/// (fp32 / int8). Rows are scored where they sit in the (64B-aligned,
/// possibly mmapped) table; nothing is copied. Two entry points:
///
///   * ScoreRange — `count` consecutive table rows starting at `base`. This
///     is the dense top-K scan path.
///   * ScoreRows — `count` scattered table rows by id. This is the
///     type-filtered candidate path and the ANN search/re-rank path.
///
/// Both pass row ids to the same indexed kernels, which score each row
/// independently of the others in the call, so ScoreRows(rows) is bitwise
/// equal to ScoreRange(rows[i], 1) per row (pinned by tests/ann_test.cc).
///
/// One instance serves one (query row, relation) pair; the int8 kernel's
/// per-query element sum is computed once at construction. A scorer holds
/// no mutable state, so threads may share one.
class BlockScorer {
 public:
  /// Rows per scored block in the top-K scans: large enough to amortize
  /// dispatch, small enough that a block's scores stay in L1.
  static constexpr size_t kBlockRows = 256;

  /// `store` must outlive the scorer; `query` is a dim()-length fp32 row
  /// (already dequantized for quantized stores) that must stay valid for
  /// every Score* call.
  BlockScorer(const EmbeddingStore* store, RelationId rel, const float* query);

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }

  /// out[i] = dot(query, table row base+i), accumulated the way the dtype's
  /// kernel accumulates. `count` is unbounded.
  void ScoreRange(size_t base, size_t count, double* out) const;

  /// out[i] = dot(query, table row rows[i]) for `count` table rows in any
  /// order. Bitwise equal to `ScoreRange(rows[i], 1, &out[i])` per row.
  void ScoreRows(const uint32_t* rows, size_t count, double* out) const;

 private:
  StoreDType dtype_;
  size_t dim_ = 0;
  size_t num_rows_ = 0;
  const float* query_ = nullptr;
  const float* table_ = nullptr;        // kF32
  const uint8_t* qtable_ = nullptr;     // kI8 payload
  const float* scales_ = nullptr;       // kI8
  const float* zeros_ = nullptr;        // kI8
  double query_sum_ = 0.0;              // kI8 affine fold
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SERVE_BLOCK_SCORER_H_
