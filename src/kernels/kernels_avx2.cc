// AVX2+FMA implementation of the kernel layer. This translation unit is
// compiled with -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt):
// the AVX2 flags let us use 256-bit intrinsics, and contraction is disabled
// so the scalar tail loops below perform exactly the same mul-then-add
// sequence as kernels_scalar.cc — every FMA in this file is an explicit
// intrinsic, never a compiler rewrite.
//
// Equivalence with the scalar backend (enforced by tests/kernel_test.cc):
// Axpy/Scale are element-wise with one rounding per element, so they match
// bit for bit; Dot and SgnsUpdateStep reassociate the float reduction
// across lanes and fuse mul+add, so they agree to ULP-scaled tolerance;
// ScoreBlock widens to double before accumulating, keeping backend drift at
// double-rounding scale even for long rows.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

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

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j + 8),
                           _mm256_loadu_ps(b + j + 8), acc1);
  }
  if (j + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j),
                           acc0);
    j += 8;
  }
  float s = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; j < n; ++j) s += a[j] * b[j];
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

HYBRIDGNN_NO_SANITIZE_THREAD
float SgnsUpdateStepAvx2(const float* e, float* c, float* e_grad, size_t n,
                         float label, float lr) {
  const float dot = DotAvx2(e, c, n);
  const float sig = 1.0f / (1.0f + std::exp(-dot));
  const float g = (sig - label) * lr;
  const __m256 vg = _mm256_set1_ps(g);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vc = _mm256_loadu_ps(c + j);
    const __m256 ve = _mm256_loadu_ps(e + j);
    _mm256_storeu_ps(e_grad + j,
                     _mm256_fmadd_ps(vg, vc, _mm256_loadu_ps(e_grad + j)));
    _mm256_storeu_ps(c + j, _mm256_fnmadd_ps(vg, ve, vc));
  }
  for (; j < n; ++j) {
    e_grad[j] += g * c[j];
    c[j] -= g * e[j];
  }
  return g;
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
  constexpr size_t kStackDims = 1024;
  double stack_q[kStackDims];
  std::vector<double> heap_q(n > kStackDims ? n : 0);
  double* q = n > kStackDims ? heap_q.data() : stack_q;
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
      DotAvx2, AxpyAvx2, ScaleAvx2, SgnsUpdateStepAvx2, ScoreBlockAvx2,
      ScoreBlockI8Avx2, SegmentSumAvx2, SegmentMeanAvx2, SegmentMaxAvx2,
      CsrSpmmAvx2,
  };
  return &ops;
}

}  // namespace hybridgnn::kernels::internal
