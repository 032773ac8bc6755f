#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "kernels/kernels.h"

namespace hybridgnn {

namespace {

// Accumulates A*B into a pre-zeroed `c`. ikj loop order: unit-stride axpy
// over both B and C rows. The zero skip both saves work on sparse-ish
// activations and keeps results bit-stable when a row is untouched.
void MatMulAccum(const Tensor& a, const Tensor& b, Tensor& c) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    float* crow = c.RowPtr(i);
    const float* arow = a.RowPtr(i);
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      kernels::Axpy(av, b.RowPtr(p), crow, n);
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HYBRIDGNN_CHECK(a.cols() == b.rows())
      << "MatMul " << a.ShapeString() << " x " << b.ShapeString();
  Tensor c(a.rows(), b.cols());
  MatMulAccum(a, b, c);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  HYBRIDGNN_CHECK(a.rows() == b.rows())
      << "MatMulTransA " << a.ShapeString() << " x " << b.ShapeString();
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor c(m, n);
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a.RowPtr(p);
    const float* brow = b.RowPtr(p);
    for (size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      kernels::Axpy(av, brow, c.RowPtr(i), n);
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  HYBRIDGNN_CHECK(a.cols() == b.cols())
      << "MatMulTransB " << a.ShapeString() << " x " << b.ShapeString();
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c = Tensor::Uninit(m, n);
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c.RowPtr(i);
    for (size_t j = 0; j < n; ++j) {
      crow[j] = kernels::Dot(arow, b.RowPtr(j), k);
    }
  }
  return c;
}

namespace {

template <typename F>
Tensor Zip(const Tensor& a, const Tensor& b, F f, const char* what) {
  HYBRIDGNN_CHECK(a.SameShape(b)) << what << " shape mismatch: "
                                  << a.ShapeString() << " vs "
                                  << b.ShapeString();
  Tensor c = Tensor::Uninit(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (size_t i = 0; i < a.size(); ++i) pc[i] = f(pa[i], pb[i]);
  return c;
}

template <typename F>
Tensor Map(const Tensor& a, F f) {
  Tensor c = Tensor::Uninit(a.rows(), a.cols());
  const float* pa = a.data();
  float* pc = c.data();
  for (size_t i = 0; i < a.size(); ++i) pc[i] = f(pa[i]);
  return c;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x + y; }, "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x - y; }, "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Zip(a, b, [](float x, float y) { return x * y; }, "Mul");
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  HYBRIDGNN_CHECK(bias.rows() == 1 && bias.cols() == a.cols())
      << "AddRowBroadcast bias " << bias.ShapeString() << " vs "
      << a.ShapeString();
  Tensor c = a;
  for (size_t i = 0; i < a.rows(); ++i) {
    kernels::Axpy(1.0f, bias.RowPtr(0), c.RowPtr(i), a.cols());
  }
  return c;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor c = a;
  kernels::Scale(alpha, c.data(), c.size());
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor c = Tensor::Uninit(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) c.At(j, i) = a.At(i, j);
  }
  return c;
}

Tensor Sigmoid(const Tensor& a) {
  return Map(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor Tanh(const Tensor& a) {
  return Map(a, [](float x) { return std::tanh(x); });
}

Tensor Relu(const Tensor& a) {
  return Map(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Log(const Tensor& a) {
  return Map(a, [](float x) { return std::log(std::max(x, 1e-12f)); });
}

Tensor Exp(const Tensor& a) {
  return Map(a, [](float x) { return std::exp(x); });
}

Tensor SoftmaxRows(const Tensor& a) {
  Tensor c = Tensor::Uninit(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c.RowPtr(i);
    float mx = arow[0];
    for (size_t j = 1; j < a.cols(); ++j) mx = std::max(mx, arow[j]);
    float sum = 0.0f;
    for (size_t j = 0; j < a.cols(); ++j) {
      crow[j] = std::exp(arow[j] - mx);
      sum += crow[j];
    }
    const float inv = 1.0f / sum;
    for (size_t j = 0; j < a.cols(); ++j) crow[j] *= inv;
  }
  return c;
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  HYBRIDGNN_CHECK(a.SameShape(b)) << "RowwiseDot shape mismatch";
  Tensor c = Tensor::Uninit(a.rows(), 1);
  for (size_t i = 0; i < a.rows(); ++i) {
    c.At(i, 0) = kernels::Dot(a.RowPtr(i), b.RowPtr(i), a.cols());
  }
  return c;
}

Tensor MeanRows(const Tensor& a) {
  HYBRIDGNN_CHECK(a.rows() > 0) << "MeanRows of empty tensor";
  Tensor c = SumRows(a);
  c.ScaleInPlace(1.0f / static_cast<float>(a.rows()));
  return c;
}

Tensor SumRows(const Tensor& a) {
  // The dense reduction behind HybridGNN mean-aggregation; kept as a
  // row-at-a-time axpy so the summation order (and therefore the result)
  // matches the pre-kernel-layer loop on every backend.
  Tensor c(1, a.cols());
  float* crow = c.RowPtr(0);
  for (size_t i = 0; i < a.rows(); ++i) {
    kernels::Axpy(1.0f, a.RowPtr(i), crow, a.cols());
  }
  return c;
}

Tensor GatherRows(const Tensor& table, std::span<const int32_t> indices) {
  Tensor c = Tensor::Uninit(indices.size(), table.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    const int32_t r = indices[i];
    HYBRIDGNN_CHECK(r >= 0 && static_cast<size_t>(r) < table.rows())
        << "GatherRows index " << r << " out of range " << table.rows();
    const float* src = table.RowPtr(static_cast<size_t>(r));
    std::copy(src, src + table.cols(), c.RowPtr(i));
  }
  return c;
}

Tensor GatherRows(const Tensor& table, const std::vector<int32_t>& indices) {
  return GatherRows(table, std::span<const int32_t>(indices));
}

void ScatterAddRows(const Tensor& g, std::span<const int32_t> indices,
                    Tensor* dest) {
  HYBRIDGNN_CHECK(g.rows() == indices.size() && g.cols() == dest->cols())
      << "ScatterAddRows: " << g.ShapeString() << " for " << indices.size()
      << " indices into " << dest->ShapeString();
  const size_t n = indices.size();
  const size_t dim = dest->cols();
  // (row << 32 | position) keys: sorting groups duplicates of a row while
  // keeping them in index order, so each row's partial sum chains its
  // contributions exactly as the dense zero-filled scatter did.
  static thread_local std::vector<uint64_t> keys;
  static thread_local std::vector<float> acc;
  keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = (static_cast<uint64_t>(static_cast<uint32_t>(indices[i])) << 32) |
              static_cast<uint64_t>(i);
  }
  std::sort(keys.begin(), keys.end());
  acc.resize(dim);
  for (size_t a = 0; a < n;) {
    const size_t row = static_cast<size_t>(keys[a] >> 32);
    HYBRIDGNN_CHECK(row < dest->rows())
        << "ScatterAddRows index " << row << " out of range " << dest->rows();
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (; a < n && static_cast<size_t>(keys[a] >> 32) == row; ++a) {
      const float* gr = g.RowPtr(static_cast<size_t>(keys[a] & 0xFFFFFFFFu));
      for (size_t j = 0; j < dim; ++j) acc[j] += gr[j];
    }
    float* d = dest->RowPtr(row);
    for (size_t j = 0; j < dim; ++j) d[j] += acc[j];
  }
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  HYBRIDGNN_CHECK(!parts.empty()) << "ConcatRows of empty list";
  const size_t cols = parts[0].cols();
  size_t rows = 0;
  for (const auto& p : parts) {
    HYBRIDGNN_CHECK(p.cols() == cols) << "ConcatRows column mismatch";
    rows += p.rows();
  }
  Tensor c = Tensor::Uninit(rows, cols);
  size_t at = 0;
  for (const auto& p : parts) {
    std::copy(p.data(), p.data() + p.size(), c.RowPtr(at));
    at += p.rows();
  }
  return c;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  HYBRIDGNN_CHECK(!parts.empty()) << "ConcatCols of empty list";
  const size_t rows = parts[0].rows();
  size_t cols = 0;
  for (const auto& p : parts) {
    HYBRIDGNN_CHECK(p.rows() == rows) << "ConcatCols row mismatch";
    cols += p.cols();
  }
  Tensor c = Tensor::Uninit(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    size_t at = 0;
    for (const auto& p : parts) {
      const float* src = p.RowPtr(i);
      std::copy(src, src + p.cols(), c.RowPtr(i) + at);
      at += p.cols();
    }
  }
  return c;
}

void L2NormalizeRowsInPlace(Tensor& a) {
  for (size_t i = 0; i < a.rows(); ++i) {
    float* row = a.RowPtr(i);
    const double s = kernels::DotDouble(row, row, a.cols());
    if (s < 1e-24) continue;
    const float inv = static_cast<float>(1.0 / std::sqrt(s));
    kernels::Scale(inv, row, a.cols());
  }
}

bool AllFinite(const Tensor& t) { return AllFinite(t.data(), t.size()); }

bool AllFinite(const float* x, size_t n) {
  // A float is inf or NaN exactly when all its exponent bits are set. A
  // branch-free integer OR over the bits vectorizes, where an early-exit
  // std::isfinite loop does not.
  uint32_t nonfinite = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, x + i, sizeof(bits));
    nonfinite |= static_cast<uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  return nonfinite == 0;
}

float CosineSimilarity(const Tensor& a, const Tensor& b) {
  HYBRIDGNN_CHECK(a.rows() == 1 && b.rows() == 1 && a.cols() == b.cols())
      << "CosineSimilarity expects equal-length row vectors";
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t j = 0; j < a.cols(); ++j) {
    dot += static_cast<double>(a.At(0, j)) * b.At(0, j);
    na += static_cast<double>(a.At(0, j)) * a.At(0, j);
    nb += static_cast<double>(b.At(0, j)) * b.At(0, j);
  }
  if (na < 1e-24 || nb < 1e-24) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

}  // namespace hybridgnn
