// AVX2+FMA implementation of the kernel layer. This translation unit is
// compiled with -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt):
// the AVX2 flags let us use 256-bit intrinsics, and contraction is disabled
// so the scalar tail loops below perform exactly the same mul-then-add
// sequence as kernels_scalar.cc — every FMA in this file is an explicit
// intrinsic, never a compiler rewrite.
//
// Equivalence with the scalar backend (enforced by tests/kernel_test.cc):
// Axpy/Scale are element-wise with one rounding per element, so they match
// bit for bit; Dot and SgnsPairStep reassociate the float reduction
// across lanes and fuse mul+add, so they agree to ULP-scaled tolerance;
// ScoreBlock widens to double before accumulating, keeping backend drift at
// double-rounding scale even for long rows.
#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "kernels/kernels_impl.h"

namespace hybridgnn::kernels::internal {

namespace {

/// Horizontal sum of 8 floats, in a fixed (lane-pairing) order.
float Hsum256(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// Horizontal sum of 4 doubles.
double Hsum256d(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Dot products of e with rows c[0..R), interleaved with independent
/// accumulators so the FMA chains of different rows overlap. Each row runs
/// the one-row sequence (two 8-wide accumulators over 16-wide steps, one
/// more 8-wide step, the same horizontal sum, the same scalar tail), so
/// every result has the bits of Dot on that row alone.
template <size_t R>
inline __attribute__((always_inline)) void DotRows(const float* e,
                                                   const float* const* c,
                                                   size_t n, float* out) {
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 8
  for (size_t k = 0; k < R; ++k) acc0[k] = acc1[k] = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256 e0 = _mm256_loadu_ps(e + j);
    const __m256 e1 = _mm256_loadu_ps(e + j + 8);
#pragma GCC unroll 8
    for (size_t k = 0; k < R; ++k) {
      acc0[k] = _mm256_fmadd_ps(e0, _mm256_loadu_ps(c[k] + j), acc0[k]);
      acc1[k] = _mm256_fmadd_ps(e1, _mm256_loadu_ps(c[k] + j + 8), acc1[k]);
    }
  }
  if (j + 8 <= n) {
    const __m256 e0 = _mm256_loadu_ps(e + j);
#pragma GCC unroll 8
    for (size_t k = 0; k < R; ++k) {
      acc0[k] = _mm256_fmadd_ps(e0, _mm256_loadu_ps(c[k] + j), acc0[k]);
    }
    j += 8;
  }
#pragma GCC unroll 8
  for (size_t k = 0; k < R; ++k) {
    float s = Hsum256(_mm256_add_ps(acc0[k], acc1[k]));
    for (size_t t = j; t < n; ++t) s += e[t] * c[k][t];
    out[k] = s;
  }
}

float DotAvx2(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  DotRows<1>(a, &b, n, &s);
  return s;
}

// TSan-uninstrumented: runs on the Hogwild path (see kernels_scalar.cc).
HYBRIDGNN_NO_SANITIZE_THREAD
void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t j = 0;
  // Deliberately mul + add (not fmadd): one rounding per step, exactly the
  // scalar backend's arithmetic, so Axpy stays bit-identical across
  // backends.
  for (; j + 8 <= n; j += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + j));
    _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(y + j), prod));
  }
  for (; j < n; ++j) y[j] += alpha * x[j];
}

void ScaleAvx2(float alpha, float* x, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(x + j, _mm256_mul_ps(va, _mm256_loadu_ps(x + j)));
  }
  for (; j < n; ++j) x[j] *= alpha;
}

// The SGNS pair step splits its rows into runs whose dot products can all
// be taken before any row of the run is updated: a run ends before a row
// that repeats one of its rows (that dot must see the earlier update) and
// after a row that is `e` itself (every later dot must see e's update). A
// run also ends at kMaxSgnsRun rows, which bounds the per-run state;
// ending a run early never changes a result.
constexpr size_t kMaxSgnsRun = 8;

size_t SgnsRunEnd(const float* e, float* const* rows, size_t begin,
                  size_t num_rows) {
  size_t end = begin;
  while (end < num_rows && end - begin < kMaxSgnsRun) {
    const float* c = rows[end];
    if (std::find(rows + begin, rows + end, c) != rows + end) break;
    ++end;
    if (c == e) break;
  }
  return end;
}

/// One run of R rows: every row's dot first, then one pass over the
/// columns that updates every row, accumulates the center gradient in row
/// order (from `grad` unless this is the first run) and, after the last
/// run, applies it to `e` with Axpy's arithmetic (else stores it back).
template <size_t R>
inline __attribute__((always_inline)) void SgnsRun(float* e, float* const* c,
                                                   size_t n, float lr,
                                                   bool first, bool last,
                                                   float* grad) {
  float g[R];
  if constexpr (R <= 6) {
    DotRows<R>(e, c, n, g);
  } else {
    DotRows<4>(e, c, n, g);
    DotRows<R - 4>(e, c + 4, n, g + 4);
  }
  __m256 vg[R];
#pragma GCC unroll 8
  for (size_t k = 0; k < R; ++k) {
    const float label = first && k == 0 ? 1.0f : 0.0f;
    const float sig = 1.0f / (1.0f + std::exp(-g[k]));
    g[k] = (sig - label) * lr;
    vg[k] = _mm256_set1_ps(g[k]);
  }
  const __m256 minus_one = _mm256_set1_ps(-1.0f);
  const size_t n8 = n & ~size_t{7};
  size_t j = 0;
  for (; j < n8; j += 8) {
    const __m256 ve = _mm256_loadu_ps(e + j);
    __m256 acc = first ? _mm256_setzero_ps() : _mm256_loadu_ps(grad + j);
#pragma GCC unroll 8
    for (size_t k = 0; k < R; ++k) {
      const __m256 vc = _mm256_loadu_ps(c[k] + j);
      acc = _mm256_fmadd_ps(vg[k], vc, acc);
      _mm256_storeu_ps(c[k] + j, _mm256_fnmadd_ps(vg[k], ve, vc));
    }
    if (last) {
      _mm256_storeu_ps(e + j, _mm256_add_ps(_mm256_loadu_ps(e + j),
                                            _mm256_mul_ps(minus_one, acc)));
    } else {
      _mm256_storeu_ps(grad + j, acc);
    }
  }
  for (; j < n; ++j) {
    float acc = first ? 0.0f : grad[j];
#pragma GCC unroll 8
    for (size_t k = 0; k < R; ++k) {
      acc += g[k] * c[k][j];
      c[k][j] -= g[k] * e[j];
    }
    if (last) {
      e[j] += -1.0f * acc;
    } else {
      grad[j] = acc;
    }
  }
}

// Benign Hogwild races on the rows and `e` by design (see
// kernels_scalar.cc); the inlined helpers above inherit the annotation.
HYBRIDGNN_NO_SANITIZE_THREAD
void SgnsPairStepAvx2(float* e, float* const* rows, size_t num_rows,
                      size_t n, float lr) {
  // The center gradient, carried between runs.
  CallScratch<float> grad(n);
  for (size_t begin = 0; begin < num_rows;) {
    const size_t end = SgnsRunEnd(e, rows, begin, num_rows);
    float* const* c = rows + begin;
    const bool first = begin == 0;
    const bool last = end == num_rows;
    switch (end - begin) {
      case 1: SgnsRun<1>(e, c, n, lr, first, last, grad.data()); break;
      case 2: SgnsRun<2>(e, c, n, lr, first, last, grad.data()); break;
      case 3: SgnsRun<3>(e, c, n, lr, first, last, grad.data()); break;
      case 4: SgnsRun<4>(e, c, n, lr, first, last, grad.data()); break;
      case 5: SgnsRun<5>(e, c, n, lr, first, last, grad.data()); break;
      case 6: SgnsRun<6>(e, c, n, lr, first, last, grad.data()); break;
      case 7: SgnsRun<7>(e, c, n, lr, first, last, grad.data()); break;
      default: SgnsRun<8>(e, c, n, lr, first, last, grad.data()); break;
    }
    begin = end;
  }
}

// The indexed scan kernels score R = 4 rows per pass with independent
// accumulators, so the FMA chains of different rows overlap instead of
// waiting on each other's latency; leftover rows go through R = 1. Each
// row runs exactly the one-row operation sequence (two accumulators over
// 8- or 16-wide steps, the same horizontal sum, the same scalar tail), so
// interleaving changes no output bit.

/// Scores table rows ids[0..R) against the query widened to double (`q`).
template <size_t R>
inline __attribute__((always_inline)) void ScoreRowsF32(
    const double* q, const float* table, const uint32_t* ids, size_t n,
    double* out) {
  const size_t n8 = n & ~size_t{7};
  const float* row[R];
  __m256d lo[R], hi[R];
#pragma GCC unroll 4
  for (size_t k = 0; k < R; ++k) {
    row[k] = table + static_cast<size_t>(ids[k]) * n;
    lo[k] = hi[k] = _mm256_setzero_pd();
  }
  for (size_t j = 0; j < n8; j += 8) {
    const __m256d q_lo = _mm256_loadu_pd(q + j);
    const __m256d q_hi = _mm256_loadu_pd(q + j + 4);
#pragma GCC unroll 4
    for (size_t k = 0; k < R; ++k) {
      const __m256 r = _mm256_loadu_ps(row[k] + j);
      const __m256d r_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(r));
      const __m256d r_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(r, 1));
      lo[k] = _mm256_fmadd_pd(q_lo, r_lo, lo[k]);
      hi[k] = _mm256_fmadd_pd(q_hi, r_hi, hi[k]);
    }
  }
#pragma GCC unroll 4
  for (size_t k = 0; k < R; ++k) {
    double s = Hsum256d(_mm256_add_pd(lo[k], hi[k]));
    for (size_t j = n8; j < n; ++j) s += q[j] * row[k][j];
    out[k] = s;
  }
}

void ScoreBlockAvx2(const float* query, const float* table,
                    const uint32_t* rows, size_t num_rows, size_t n,
                    double* out) {
  if (num_rows == 0) return;
  // Widen the query to double once per call; every row reuses it.
  CallScratch<double> widened(n);
  double* q = widened.data();
  for (size_t j = 0; j < n; ++j) q[j] = static_cast<double>(query[j]);
  size_t i = 0;
  for (; i + 4 <= num_rows; i += 4) {
    ScoreRowsF32<4>(q, table, rows + i, n, out + i);
  }
  for (; i < num_rows; ++i) ScoreRowsF32<1>(q, table, rows + i, n, out + i);
}

/// 8 u8 codes at `row + j`, widened to floats.
inline __m256 LoadU8(const uint8_t* row, size_t j) {
  return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + j))));
}

/// Scores int8 table rows ids[0..R): float dot, then the per-row affine.
template <size_t R>
inline __attribute__((always_inline)) void ScoreRowsI8(
    const float* query, const uint8_t* table, const float* scales,
    const float* zeros, double query_sum, const uint32_t* ids, size_t n,
    double* out) {
  const uint8_t* row[R];
  __m256 acc0[R], acc1[R];
#pragma GCC unroll 4
  for (size_t k = 0; k < R; ++k) {
    row[k] = table + static_cast<size_t>(ids[k]) * n;
    acc0[k] = acc1[k] = _mm256_setzero_ps();
  }
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m256 q0 = _mm256_loadu_ps(query + j);
    const __m256 q1 = _mm256_loadu_ps(query + j + 8);
#pragma GCC unroll 4
    for (size_t k = 0; k < R; ++k) {
      acc0[k] = _mm256_fmadd_ps(q0, LoadU8(row[k], j), acc0[k]);
      acc1[k] = _mm256_fmadd_ps(q1, LoadU8(row[k], j + 8), acc1[k]);
    }
  }
  if (j + 8 <= n) {
    const __m256 q0 = _mm256_loadu_ps(query + j);
#pragma GCC unroll 4
    for (size_t k = 0; k < R; ++k) {
      acc0[k] = _mm256_fmadd_ps(q0, LoadU8(row[k], j), acc0[k]);
    }
    j += 8;
  }
#pragma GCC unroll 4
  for (size_t k = 0; k < R; ++k) {
    float acc = Hsum256(_mm256_add_ps(acc0[k], acc1[k]));
    for (size_t t = j; t < n; ++t) {
      acc += query[t] * static_cast<float>(row[k][t]);
    }
    out[k] = static_cast<double>(scales[ids[k]]) * static_cast<double>(acc) +
             static_cast<double>(zeros[ids[k]]) * query_sum;
  }
}

// Dequant-and-score over per-row affine uint8 rows. The affine transform
// factors out of the dot product (see kernels.h), so the inner loop is a
// pure query x u8-row product: 8 bytes widen to 8 floats and fmadd into a
// float accumulator. The float reduction reassociates across lanes, so
// backends agree to ULP-scaled tolerance (same contract as Dot).
void ScoreBlockI8Avx2(const float* query, const uint8_t* table,
                      const float* scales, const float* zeros,
                      double query_sum, const uint32_t* rows,
                      size_t num_rows, size_t n, double* out) {
  size_t i = 0;
  for (; i + 4 <= num_rows; i += 4) {
    ScoreRowsI8<4>(query, table, scales, zeros, query_sum, rows + i, n,
                   out + i);
  }
  for (; i < num_rows; ++i) {
    ScoreRowsI8<1>(query, table, scales, zeros, query_sum, rows + i, n,
                   out + i);
  }
}

// Segment reductions and CSR SpMM stay bit-identical to the scalar backend:
// each output element is produced by the same add (and trailing multiply)
// chain in the same row order — the vector loops only batch 8 independent
// columns per instruction, which never reassociates a chain. No FMA
// anywhere in these four kernels.
void SegmentSumAvx2(const float* x, size_t dim, const size_t* indptr,
                    size_t num_segments, float* out) {
  for (size_t s = 0; s < num_segments; ++s) {
    float* o = out + s * dim;
    const size_t lo = indptr[s];
    const size_t hi = indptr[s + 1];
    size_t j = 0;
    for (; j + 8 <= dim; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (size_t r = lo; r < hi; ++r) {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + r * dim + j));
      }
      _mm256_storeu_ps(o + j, acc);
    }
    for (; j < dim; ++j) {
      float acc = 0.0f;
      for (size_t r = lo; r < hi; ++r) acc += x[r * dim + j];
      o[j] = acc;
    }
  }
}

void SegmentMeanAvx2(const float* x, size_t dim, const size_t* indptr,
                     size_t num_segments, float* out) {
  SegmentSumAvx2(x, dim, indptr, num_segments, out);
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t len = indptr[s + 1] - indptr[s];
    if (len == 0) continue;
    ScaleAvx2(1.0f / static_cast<float>(len), out + s * dim, dim);
  }
}

void SegmentMaxAvx2(const float* x, size_t dim, const size_t* indptr,
                    size_t num_segments, float* out, uint32_t* argmax) {
  for (size_t s = 0; s < num_segments; ++s) {
    float* o = out + s * dim;
    uint32_t* a = argmax + s * dim;
    const size_t lo = indptr[s];
    const size_t hi = indptr[s + 1];
    if (lo == hi) {
      for (size_t j = 0; j < dim; ++j) {
        o[j] = 0.0f;
        a[j] = kNoSegmentRow;
      }
      continue;
    }
    size_t j = 0;
    for (; j + 8 <= dim; j += 8) {
      __m256 vmax = _mm256_loadu_ps(x + lo * dim + j);
      __m256i vidx = _mm256_set1_epi32(static_cast<int>(lo));
      for (size_t r = lo + 1; r < hi; ++r) {
        const __m256 v = _mm256_loadu_ps(x + r * dim + j);
        // Strict >, ordered: NaN never displaces the running max, matching
        // the scalar backend's `if (v > max)`.
        const __m256 gt = _mm256_cmp_ps(v, vmax, _CMP_GT_OQ);
        vmax = _mm256_blendv_ps(vmax, v, gt);
        vidx = _mm256_blendv_epi8(vidx,
                                  _mm256_set1_epi32(static_cast<int>(r)),
                                  _mm256_castps_si256(gt));
      }
      _mm256_storeu_ps(o + j, vmax);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + j), vidx);
    }
    for (; j < dim; ++j) {
      float m = x[lo * dim + j];
      uint32_t arg = static_cast<uint32_t>(lo);
      for (size_t r = lo + 1; r < hi; ++r) {
        const float v = x[r * dim + j];
        if (v > m) {
          m = v;
          arg = static_cast<uint32_t>(r);
        }
      }
      o[j] = m;
      a[j] = arg;
    }
  }
}

void CsrSpmmAvx2(const size_t* indptr, const uint32_t* indices,
                 const float* values, size_t rows, const float* x, size_t dim,
                 float* y) {
  for (size_t r = 0; r < rows; ++r) {
    float* yr = y + r * dim;
    for (size_t e = indptr[r]; e < indptr[r + 1]; ++e) {
      const float w = values != nullptr ? values[e] : 1.0f;
      const float* xr = x + static_cast<size_t>(indices[e]) * dim;
      const __m256 vw = _mm256_set1_ps(w);
      size_t j = 0;
      // mul + add, not fmadd: one rounding per step, the scalar chain.
      for (; j + 8 <= dim; j += 8) {
        const __m256 prod = _mm256_mul_ps(vw, _mm256_loadu_ps(xr + j));
        _mm256_storeu_ps(yr + j,
                         _mm256_add_ps(_mm256_loadu_ps(yr + j), prod));
      }
      for (; j < dim; ++j) yr[j] += w * xr[j];
    }
  }
}

}  // namespace

const KernelOps* Avx2Ops() {
  // Compiled-in does not mean runnable: gate on CPUID so a binary built on
  // an AVX2 machine still starts (on the scalar path) elsewhere.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const KernelOps ops = {
      DotAvx2, AxpyAvx2, ScaleAvx2, SgnsPairStepAvx2, ScoreBlockAvx2,
      ScoreBlockI8Avx2, SegmentSumAvx2, SegmentMeanAvx2, SegmentMaxAvx2,
      CsrSpmmAvx2,
  };
  return &ops;
}

}  // namespace hybridgnn::kernels::internal
