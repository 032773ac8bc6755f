#ifndef HYBRIDGNN_SERVE_BLOCK_SCORER_H_
#define HYBRIDGNN_SERVE_BLOCK_SCORER_H_

#include <cstdint>
#include <vector>

#include "serve/embedding_store.h"

namespace hybridgnn {

/// Per-query scorer over one relation's table of an EmbeddingStore,
/// dispatching to whichever ScoreBlock kernel matches the store's dtype
/// (fp32 / int8). Two entry points:
///
///   * ScoreRange — `count` consecutive table rows starting at `base`,
///     straight off the (64B-aligned, possibly mmapped) table. This is the
///     dense top-K scan path.
///   * ScoreRows — `count` scattered table rows, gathered into a contiguous
///     block buffer (payload plus, for int8, the per-row scales/zeros) and
///     scored through the same kernels. This is the type-filtered candidate
///     path and the ANN search/re-rank path.
///
/// Per-row arithmetic is identical between the two: every ScoreBlock-family
/// kernel accumulates each output row independently of its neighbors in the
/// block, so gathering rows into a different buffer produces bitwise the
/// same scores as scoring them one at a time in place (pinned by
/// tests/ann_test.cc's differential suite).
///
/// One instance serves one (query row, relation) pair; the int8 kernel's
/// per-query element sum is computed once at construction. Instances hold
/// gather scratch, so they are cheap to reuse across blocks but not safe to
/// share between threads.
class BlockScorer {
 public:
  /// Rows per gathered block; ScoreRows accepts at most this many rows per
  /// call. Matches the dense scan's block size: large enough to amortize
  /// dispatch, small enough that the block stays in L1.
  static constexpr size_t kBlockRows = 256;

  /// `store` must outlive the scorer; `query` is a dim()-length fp32 row
  /// (already dequantized for quantized stores) that must stay valid for
  /// every Score* call.
  BlockScorer(const EmbeddingStore* store, RelationId rel, const float* query);

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }

  /// out[i] = dot(query, table row base+i), accumulated the way the dtype's
  /// kernel accumulates. `count` is unbounded (the kernels take any row
  /// count).
  void ScoreRange(size_t base, size_t count, double* out) const;

  /// out[i] = dot(query, table row rows[i]) for `count` <= kBlockRows
  /// scattered rows, gathered then scored in one kernel call. Bitwise equal
  /// to `ScoreRange(rows[i], 1, &out[i])` per row.
  void ScoreRows(const uint32_t* rows, size_t count, double* out);

 private:
  const EmbeddingStore* store_;
  StoreDType dtype_;
  size_t dim_ = 0;
  size_t num_rows_ = 0;
  const float* query_ = nullptr;
  const float* table_ = nullptr;        // kF32
  const uint8_t* qtable_ = nullptr;     // kI8 payload
  const float* scales_ = nullptr;       // kI8
  const float* zeros_ = nullptr;        // kI8
  double query_sum_ = 0.0;              // kI8 affine fold

  // Gather scratch for ScoreRows (lazily sized to kBlockRows * dim).
  std::vector<float> gather_f32_;
  std::vector<uint8_t> gather_bytes_;   // int8 codes
  std::vector<float> gather_scales_;
  std::vector<float> gather_zeros_;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_SERVE_BLOCK_SCORER_H_
