// Scalar reference implementation of the kernel layer. These loops are the
// exact pre-kernel-layer hot loops moved out of sgns.cc / line.cc / topk.cc
// / tensor_ops.cc, so HYBRIDGNN_KERNELS=scalar reproduces the pre-SIMD
// library bit for bit (pinned by determinism_test's golden vectors). Do not
// "improve" the arithmetic here — reorderings change results and break the
// reproducibility contract; speed work belongs in kernels_avx2.cc.
#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "kernels/kernels_impl.h"

namespace hybridgnn::kernels::internal {

namespace {

float DotScalar(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t j = 0; j < n; ++j) s += a[j] * b[j];
  return s;
}

// Runs inside the Hogwild SGNS/LINE update path where workers race on
// embedding rows by design, so it must stay TSan-uninstrumented (see
// common/parallel.h).
HYBRIDGNN_NO_SANITIZE_THREAD
void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t j = 0; j < n; ++j) y[j] += alpha * x[j];
}

void ScaleScalar(float alpha, float* x, size_t n) {
  for (size_t j = 0; j < n; ++j) x[j] *= alpha;
}

// The pre-kernel-layer SgnsPush/LinePush body, verbatim, once per row,
// then the Axpy that applies the center gradient. Benign Hogwild races on
// the rows and `e` by design.
HYBRIDGNN_NO_SANITIZE_THREAD
void SgnsPairStepScalar(float* e, float* const* rows, size_t num_rows,
                        size_t n, float lr) {
  CallScratch<float> grad(n);
  float* e_grad = grad.data();
  std::fill(e_grad, e_grad + n, 0.0f);
  for (size_t k = 0; k < num_rows; ++k) {
    float* c = rows[k];
    const float label = k == 0 ? 1.0f : 0.0f;
    float dot = 0.0f;
    for (size_t j = 0; j < n; ++j) dot += e[j] * c[j];
    const float sig = 1.0f / (1.0f + std::exp(-dot));
    const float g = (sig - label) * lr;
    for (size_t j = 0; j < n; ++j) {
      e_grad[j] += g * c[j];
      c[j] -= g * e[j];
    }
  }
  AxpyScalar(-1.0f, e_grad, e, n);
}

void ScoreBlockScalar(const float* query, const float* table,
                      const uint32_t* rows, size_t num_rows, size_t n,
                      double* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    const float* row = table + static_cast<size_t>(rows[i]) * n;
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) {
      s += static_cast<double>(query[j]) * row[j];
    }
    out[i] = s;
  }
}

void ScoreBlockI8Scalar(const float* query, const uint8_t* table,
                        const float* scales, const float* zeros,
                        double query_sum, const uint32_t* rows,
                        size_t num_rows, size_t n, double* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    const size_t id = rows[i];
    const uint8_t* row = table + id * n;
    float acc = 0.0f;
    for (size_t j = 0; j < n; ++j) {
      acc += query[j] * static_cast<float>(row[j]);
    }
    out[i] = static_cast<double>(scales[id]) * static_cast<double>(acc) +
             static_cast<double>(zeros[id]) * query_sum;
  }
}

// Segment reductions. SegmentSum's per-element chain (zero, then += in
// ascending row order) and SegmentMean's trailing *= 1/len replicate the
// SumRows-then-ScaleInPlace composition the aggregation path used before
// the frontier redesign, so determinism_test's goldens still pin it.
void SegmentSumScalar(const float* x, size_t dim, const size_t* indptr,
                      size_t num_segments, float* out) {
  for (size_t s = 0; s < num_segments; ++s) {
    float* o = out + s * dim;
    for (size_t j = 0; j < dim; ++j) o[j] = 0.0f;
    for (size_t r = indptr[s]; r < indptr[s + 1]; ++r) {
      const float* row = x + r * dim;
      for (size_t j = 0; j < dim; ++j) o[j] += row[j];
    }
  }
}

void SegmentMeanScalar(const float* x, size_t dim, const size_t* indptr,
                       size_t num_segments, float* out) {
  SegmentSumScalar(x, dim, indptr, num_segments, out);
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t len = indptr[s + 1] - indptr[s];
    if (len == 0) continue;
    const float inv = 1.0f / static_cast<float>(len);
    float* o = out + s * dim;
    for (size_t j = 0; j < dim; ++j) o[j] *= inv;
  }
}

void SegmentMaxScalar(const float* x, size_t dim, const size_t* indptr,
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
    const float* first = x + lo * dim;
    for (size_t j = 0; j < dim; ++j) {
      o[j] = first[j];
      a[j] = static_cast<uint32_t>(lo);
    }
    for (size_t r = lo + 1; r < hi; ++r) {
      const float* row = x + r * dim;
      for (size_t j = 0; j < dim; ++j) {
        // Strict > keeps the first row on ties and never lets NaN displace
        // the running max.
        if (row[j] > o[j]) {
          o[j] = row[j];
          a[j] = static_cast<uint32_t>(r);
        }
      }
    }
  }
}

// The exact per-edge loop SpDense (nn/sparse.cc) ran before the kernel
// routing: one mul-then-add per element, edges in CSR order.
void CsrSpmmScalar(const size_t* indptr, const uint32_t* indices,
                   const float* values, size_t rows, const float* x,
                   size_t dim, float* y) {
  for (size_t r = 0; r < rows; ++r) {
    float* yr = y + r * dim;
    for (size_t e = indptr[r]; e < indptr[r + 1]; ++e) {
      const float w = values != nullptr ? values[e] : 1.0f;
      const float* xr = x + indices[e] * dim;
      for (size_t j = 0; j < dim; ++j) yr[j] += w * xr[j];
    }
  }
}

}  // namespace

const KernelOps& ScalarOps() {
  static const KernelOps ops = {
      DotScalar, AxpyScalar, ScaleScalar, SgnsPairStepScalar,
      ScoreBlockScalar, ScoreBlockI8Scalar, SegmentSumScalar,
      SegmentMeanScalar, SegmentMaxScalar, CsrSpmmScalar,
  };
  return ops;
}

}  // namespace hybridgnn::kernels::internal
