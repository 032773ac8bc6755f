#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <new>

#include "common/logging.h"
#include "common/string_util.h"
#include "kernels/kernels.h"

namespace hybridgnn {

float* Tensor::Allocate(size_t n) {
  if (n == 0) return nullptr;
  return static_cast<float*>(
      ::operator new(n * sizeof(float), std::align_val_t{64}));
}

void Tensor::FreeBuffer() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{64});
    data_ = nullptr;
  }
}

Tensor::Tensor(size_t rows, size_t cols, UninitTag)
    : rows_(rows), cols_(cols), data_(Allocate(rows * cols)) {}

Tensor::Tensor(size_t rows, size_t cols) : Tensor(rows, cols, UninitTag{}) {
  if (data_ != nullptr) std::memset(data_, 0, size() * sizeof(float));
}

Tensor::Tensor(size_t rows, size_t cols, std::vector<float> data)
    : Tensor(rows, cols, UninitTag{}) {
  HYBRIDGNN_CHECK(data.size() == rows * cols)
      << "Tensor data size " << data.size() << " != " << rows << "x" << cols;
  if (data_ != nullptr) {
    std::memcpy(data_, data.data(), size() * sizeof(float));
  }
}

Tensor::Tensor(const Tensor& other) : Tensor(other.rows_, other.cols_,
                                             UninitTag{}) {
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_, size() * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  // Reuse the existing buffer when the element count matches: parameter
  // restores and cached-row writes then copy in place instead of
  // reallocating.
  if (size() == other.size() && data_ != nullptr) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    std::memcpy(data_, other.data_, size() * sizeof(float));
    return *this;
  }
  FreeBuffer();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = Allocate(size());
  if (data_ != nullptr) {
    std::memcpy(data_, other.data_, size() * sizeof(float));
  }
  return *this;
}

Tensor Tensor::Full(size_t rows, size_t cols, float value) {
  Tensor t = Uninit(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Eye(size_t n) {
  Tensor t(n, n);
  for (size_t i = 0; i < n; ++i) t.At(i, i) = 1.0f;
  return t;
}

Tensor Tensor::Row(std::vector<float> values) {
  size_t n = values.size();
  return Tensor(1, n, std::move(values));
}

void Tensor::Fill(float value) {
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) data_[i] = value;
}

void Tensor::Zero() {
  if (data_ != nullptr) std::memset(data_, 0, size() * sizeof(float));
}

void Tensor::AddInPlace(const Tensor& other) {
  HYBRIDGNN_CHECK(SameShape(other)) << "AddInPlace shape mismatch";
  kernels::Axpy(1.0f, other.data_, data_, size());
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  HYBRIDGNN_CHECK(SameShape(other)) << "Axpy shape mismatch";
  kernels::Axpy(alpha, other.data_, data_, size());
}

void Tensor::ScaleInPlace(float alpha) {
  kernels::Scale(alpha, data_, size());
}

Tensor Tensor::CopyRow(size_t r) const {
  HYBRIDGNN_CHECK(r < rows_);
  Tensor out = Uninit(1, cols_);
  std::memcpy(out.data(), RowPtr(r), cols_ * sizeof(float));
  return out;
}

double Tensor::Sum() const {
  double s = 0.0;
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) s += data_[i];
  return s;
}

double Tensor::SquaredNorm() const {
  if (empty()) return 0.0;
  return kernels::DotDouble(data_, data_, size());
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::abs(data_[i]));
  return m;
}

std::string Tensor::ShapeString() const {
  return StrFormat("Tensor(%zux%zu)", rows_, cols_);
}

}  // namespace hybridgnn
