#ifndef HYBRIDGNN_KERNELS_KERNELS_H_
#define HYBRIDGNN_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace hybridgnn::kernels {

/// Runtime-dispatched dense float kernels backing the library's hot loops:
/// the Hogwild skip-gram inner loop (sampling/sgns.cc, baselines/line.cc),
/// in-place top-K candidate scoring (serve/block_scorer.cc), the dense
/// reductions in tensor/tensor_ops.cc, and the frontier segment reductions /
/// CSR SpMM behind the sparse aggregation ops in nn/sparse.cc.
///
/// Two implementations exist behind one entry point each:
///   * kScalar — plain loops, semantically identical to the pre-kernel-layer
///     code. With HYBRIDGNN_KERNELS=scalar the whole library reproduces the
///     pre-SIMD results bit for bit (pinned by determinism_test).
///   * kAvx2   — AVX2+FMA vector loops, compiled only when the toolchain
///     supports -mavx2 -mfma and selected only when CPUID reports both.
///
/// The backend is resolved once, on first kernel call:
///   HYBRIDGNN_KERNELS=scalar   force the reference path
///   HYBRIDGNN_KERNELS=avx2     force AVX2 (falls back to scalar with a
///                              warning when the host cannot run it)
///   unset / anything else      auto-detect via CPUID
///
/// Equivalence contract between backends (enforced by tests/kernel_test.cc):
///   * Scale: bit-identical (one rounding per element on both paths).
///   * Axpy:  <= 1 ULP per element (the scalar path may or may not contract
///     mul+add into an FMA depending on compiler defaults).
///   * Dot / SgnsPairStep: reductions are reassociated by the vector
///     path, so results agree only to ULP-scaled tolerance (see
///     tests/kernel_test.cc and DESIGN.md §11 for the exact bounds).
///     On each backend SgnsPairStep is bitwise equal to its rows'
///     one-at-a-time steps: the AVX2 body interleaves only rows whose
///     results cannot depend on each other.
///   * ScoreBlock: accumulates in double on both paths; backend drift is
///     bounded by double rounding of the partial sums (~1e-15 relative).
///     On each backend a multi-row ScoreBlock{,I8} call is bitwise equal to
///     one-row calls.
///   * SegmentSum / SegmentMean / SegmentMax / CsrSpmm: bit-identical. The
///     vector bodies accumulate each output element through the same
///     mul-then-add chain (in the same row order) as the scalar reference —
///     no FMA, no reassociation — so the frontier aggregation path produces
///     the same bits under either backend.
enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" / "avx2".
const char* BackendName(Backend b);

/// True when the AVX2 implementation was compiled in AND the CPU reports
/// AVX2 and FMA support.
bool Avx2Available();

/// The backend every kernel entry point currently dispatches to.
Backend ActiveBackend();

/// Forces dispatch to `b` and returns the previously active backend.
/// CHECK-fails when forcing kAvx2 on a host without it. Intended for the
/// differential tests and the kernel micro-bench; not thread-safe with
/// respect to concurrent kernel calls.
Backend SetBackend(Backend b);

/// RAII backend override for tests: forces `b` on construction, restores
/// the previous backend on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : previous_(SetBackend(b)) {}
  ~ScopedBackend() { SetBackend(previous_); }

  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  Backend previous_;
};

/// sum_j a[j] * b[j], accumulated in float (word2vec-style training math).
float Dot(const float* a, const float* b, size_t n);

/// y[j] += alpha * x[j]. Safe on the Hogwild training path: both backend
/// implementations are TSan-uninstrumented (see kernels_scalar.cc).
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x[j] *= alpha.
void Scale(float alpha, float* x, size_t n);

/// One SGNS pair step (Eqs. 11-13 of the paper) for the center row `e`
/// against `num_rows` context rows: rows[0] is the positive (label 1), the
/// rest are negatives (label 0). In k order it computes
/// g_k = (sigmoid(e.c_k) - label_k) * lr, then grad[j] += g_k * c_k[j] and
/// c_k[j] -= g_k * e[j] in place; finally e[j] += -1 * grad[j] with grad
/// starting at zero. Rows may repeat, and a row may be `e` itself (LINE's
/// first order draws its targets from the center table): the result is
/// exactly that sequence. Rows are whole length-n rows, so two row
/// pointers are either equal or disjoint. The scalar path is the
/// pre-kernel-layer SgnsPush/LinePush loop followed by the Axpy.
void SgnsPairStep(float* e, float* const* rows, size_t num_rows, size_t n,
                  float lr);

/// In-place candidate scoring for top-K retrieval: out[i] = sum_j query[j] *
/// table[rows[i]*n + j], accumulated in double, over `num_rows` row ids of
/// a row-major table of length-n rows, in any order, duplicates allowed.
void ScoreBlock(const float* query, const float* table, const uint32_t* rows,
                size_t num_rows, size_t n, double* out);

/// sum_j a[j] * b[j] accumulated in double: ScoreBlock over the one row b.
inline double DotDouble(const float* a, const float* b, size_t n) {
  const uint32_t row = 0;
  double s = 0.0;
  ScoreBlock(a, b, &row, 1, n, &s);
  return s;
}

/// ScoreBlock over per-row affine-quantized uint8 rows (the int8
/// EmbeddingStore payload): element j of table row r dequantizes as
/// zeros[r] + scales[r] * table[r*n+j], so with r = rows[i]
///   out[i] = scales[r] * sum_j(query[j] * table[r*n+j])
///          + zeros[r] * query_sum
/// with query_sum = sum_j query[j] precomputed once per query. The inner
/// sum accumulates in float (the vector path reassociates across lanes and
/// fuses mul+add), so backends agree to ULP-scaled tolerance, not bitwise;
/// the final affine step widens to double.
void ScoreBlockI8(const float* query, const uint8_t* table,
                  const float* scales, const float* zeros, double query_sum,
                  const uint32_t* rows, size_t num_rows, size_t n,
                  double* out);

/// Sentinel argmax value written by SegmentMax for empty segments.
inline constexpr uint32_t kNoSegmentRow = UINT32_MAX;

/// Segment reductions over a flat row-major block `x` [m, dim]: segment s
/// covers block rows [indptr[s], indptr[s+1]) and reduces to output row s,
/// so `out` is [num_segments, dim] and indptr has num_segments+1 entries
/// with indptr[0] == 0 and indptr[num_segments] == m. Empty segments
/// produce zero rows. SegmentSum accumulates rows in ascending row order
/// (the same chain as repeated Axpy(1.0f, row, acc)); SegmentMean applies
/// one final multiply by 1/len per element, reproducing the
/// SumRows-then-ScaleInPlace arithmetic of tensor_ops bit for bit.
void SegmentSum(const float* x, size_t dim, const size_t* indptr,
                size_t num_segments, float* out);
void SegmentMean(const float* x, size_t dim, const size_t* indptr,
                 size_t num_segments, float* out);

/// Per-column segment max with argmax: out[s*dim+j] is the max of column j
/// over segment s's rows and argmax[s*dim+j] the *block* row index that
/// attained it (strict `>` comparison, so ties keep the first row; NaN
/// inputs never displace the running max). Empty segments write 0.0f and
/// kNoSegmentRow.
void SegmentMax(const float* x, size_t dim, const size_t* indptr,
                size_t num_segments, float* out, uint32_t* argmax);

/// CSR sparse-dense matmul: y[r] += sum_e values[e] * x[indices[e]] over
/// e in [indptr[r], indptr[r+1]), with x and y row-major [*, dim].
/// Accumulates into y (callers pass a zeroed output); `values == nullptr`
/// means unit weights. Per-edge arithmetic is the exact Axpy-style
/// mul-then-add chain of the pre-kernel SpMM loop.
void CsrSpmm(const size_t* indptr, const uint32_t* indices,
             const float* values, size_t rows, const float* x, size_t dim,
             float* y);

}  // namespace hybridgnn::kernels

#endif  // HYBRIDGNN_KERNELS_KERNELS_H_
