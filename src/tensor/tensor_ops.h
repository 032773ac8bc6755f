#ifndef HYBRIDGNN_TENSOR_TENSOR_OPS_H_
#define HYBRIDGNN_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace hybridgnn {

/// Raw (non-differentiable) tensor math. The autograd layer composes these.

/// C = A * B. A is [m,k], B is [k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A^T * B. A is [k,m], B is [k,n] -> [m,n].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C = A * B^T. A is [m,k], B is [n,k] -> [m,n].
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Elementwise sum / difference / product (shapes must match).
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

/// Adds row vector `bias` (1 x n) to every row of `a` ([m,n]).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// alpha * a.
Tensor Scale(const Tensor& a, float alpha);

/// Transpose.
Tensor Transpose(const Tensor& a);

/// Elementwise activations.
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
/// Elementwise natural log (inputs clamped to >= 1e-12).
Tensor Log(const Tensor& a);
Tensor Exp(const Tensor& a);

/// Row-wise softmax of an [m,n] matrix (numerically stabilized).
Tensor SoftmaxRows(const Tensor& a);

/// Row-wise dot product: a and b are [m,n] -> [m,1].
Tensor RowwiseDot(const Tensor& a, const Tensor& b);

/// Mean over rows: [m,n] -> [1,n].
Tensor MeanRows(const Tensor& a);
/// Sum over rows: [m,n] -> [1,n].
Tensor SumRows(const Tensor& a);

/// Gathers rows `indices` of `table` into a new [k, n] tensor. The span
/// overload lets callers reuse index scratch buffers.
Tensor GatherRows(const Tensor& table, std::span<const int32_t> indices);
Tensor GatherRows(const Tensor& table, const std::vector<int32_t>& indices);

/// The backward of GatherRows: dest[indices[i]] += g[i] for every i, touching
/// only the indexed rows of `dest` (no dense [rows(dest), cols] scratch).
/// Duplicate indices are pre-summed in index order from a zeroed row, then
/// added once, which is the exact arithmetic of scattering into a zero-filled
/// dense gradient and adding that. Negative or out-of-range indices are
/// rejected.
void ScatterAddRows(const Tensor& g, std::span<const int32_t> indices,
                    Tensor* dest);

/// Vertically stacks matrices with equal column counts.
Tensor ConcatRows(const std::vector<Tensor>& parts);
/// Horizontally concatenates matrices with equal row counts.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// L2-normalizes each row in place (rows with tiny norm are left unchanged).
void L2NormalizeRowsInPlace(Tensor& a);

/// True when every element of `t` is finite (no NaN, no +-Inf).
bool AllFinite(const Tensor& t);
/// The same over `n` floats at `x`.
bool AllFinite(const float* x, size_t n);

/// Cosine similarity between two equal-length row vectors (1 x n).
float CosineSimilarity(const Tensor& a, const Tensor& b);

}  // namespace hybridgnn

#endif  // HYBRIDGNN_TENSOR_TENSOR_OPS_H_
