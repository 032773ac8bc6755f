#ifndef HYBRIDGNN_TENSOR_TENSOR_H_
#define HYBRIDGNN_TENSOR_TENSOR_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace hybridgnn {

/// Dense row-major float32 matrix. Vectors are represented as 1xN or Nx1.
/// This is the only numeric container in the library; all models (HybridGNN
/// and baselines) compute on it. Copyable and movable.
///
/// Each tensor owns one exact-sized, 64-byte-aligned heap buffer (plain
/// aligned `::operator new`, so allocation-counting overrides see every
/// tensor). `Uninit` skips the zero fill for outputs that are fully
/// overwritten.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() noexcept = default;
  /// Zero-initialized rows x cols tensor.
  Tensor(size_t rows, size_t cols);
  /// Copies `data`, which must have rows*cols elements.
  Tensor(size_t rows, size_t cols, std::vector<float> data);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    other.rows_ = other.cols_ = 0;
    other.data_ = nullptr;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      FreeBuffer();
      rows_ = other.rows_;
      cols_ = other.cols_;
      data_ = other.data_;
      other.rows_ = other.cols_ = 0;
      other.data_ = nullptr;
    }
    return *this;
  }
  ~Tensor() { FreeBuffer(); }

  static Tensor Zeros(size_t rows, size_t cols) { return Tensor(rows, cols); }
  /// Allocates without zero-filling. The contents are unspecified; only use
  /// when every element is written before being read.
  static Tensor Uninit(size_t rows, size_t cols) {
    return Tensor(rows, cols, UninitTag{});
  }
  static Tensor Full(size_t rows, size_t cols, float value);
  static Tensor Ones(size_t rows, size_t cols) {
    return Full(rows, cols, 1.0f);
  }
  /// Identity matrix of size n.
  static Tensor Eye(size_t n);
  /// 1 x values.size() row vector.
  static Tensor Row(std::vector<float> values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  float& operator()(size_t r, size_t c) { return At(r, c); }
  float operator()(size_t r, size_t c) const { return At(r, c); }

  float* data() { return data_; }
  const float* data() const { return data_; }
  float* RowPtr(size_t r) { return data_ + r * cols_; }
  const float* RowPtr(size_t r) const { return data_ + r * cols_; }

  /// Sets every element to `value`.
  void Fill(float value);
  /// Sets every element to zero (keeps shape).
  void Zero();

  /// this += other (shapes must match).
  void AddInPlace(const Tensor& other);
  /// this += alpha * other (shapes must match).
  void Axpy(float alpha, const Tensor& other);
  /// this *= alpha.
  void ScaleInPlace(float alpha);

  /// Returns a copy of row r as a 1 x cols tensor.
  Tensor CopyRow(size_t r) const;

  /// Sum of all elements.
  double Sum() const;
  /// Squared Frobenius norm.
  double SquaredNorm() const;
  /// Largest absolute element.
  float AbsMax() const;

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// "Tensor(3x4)" plus a few leading values; for debugging/logging.
  std::string ShapeString() const;

 private:
  struct UninitTag {};
  Tensor(size_t rows, size_t cols, UninitTag);

  /// 64-byte-aligned buffer for `n` floats; nullptr when n == 0.
  static float* Allocate(size_t n);
  void FreeBuffer();

  size_t rows_ = 0;
  size_t cols_ = 0;
  float* data_ = nullptr;
};

}  // namespace hybridgnn

#endif  // HYBRIDGNN_TENSOR_TENSOR_H_
