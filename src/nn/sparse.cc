#include "nn/sparse.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {

namespace {

Tensor SpDense(const SparseMatrix& s, const Tensor& x) {
  HYBRIDGNN_CHECK(s.cols == x.rows())
      << "SpMM dims: " << s.cols << " vs " << x.rows();
  Tensor y(s.rows, x.cols());
  if (s.rows == 0 || x.rows() == 0) return y;
  kernels::CsrSpmm(s.offsets.data(), s.col_idx.data(), s.values.data(),
                   s.rows, x.RowPtr(0), x.cols(), y.RowPtr(0));
  return y;
}

ag::Var SpMMImpl(const SparseMatrix& fwd, const SparseMatrix& bwd,
                 const ag::Var& x) {
  Tensor out = SpDense(fwd, x->value);
  // Copy the (small) CSR so the graph may outlive the operator.
  return ag::MakeOp(std::move(out), {x},
                    [bwd_copy = bwd](ag::Node& n) {
                      ag::Node* x = n.parent(0);
                      if (x->requires_grad) {
                        x->AccumulateGrad(SpDense(bwd_copy, n.grad));
                      }
                    });
}

// ---- Frontier segment ops --------------------------------------------------

// Shared CHECK for the segment ops: the frontier must tile the block's rows.
void CheckFrontierCoversBlock(const MinibatchFrontier& f, const Tensor& x) {
  HYBRIDGNN_CHECK(!f.indptr.empty() && f.indptr.front() == 0 &&
                  f.indptr.back() == x.rows())
      << "frontier indptr [0.." << (f.indptr.empty() ? 0 : f.indptr.back())
      << ") does not tile a " << x.rows() << "-row block";
}

// ---- Backward bodies of the segment ops -----------------------------------

// dx <- broadcast of g rows over segments. Writes every row (the frontier
// tiles the block), so dx may start uninitialized.
void SegmentSumGrad(ag::Node& n, const size_t* indptr, size_t segs) {
  ag::Node* x = n.parent(0);
  if (!x->requires_grad) return;
  Tensor dx = Tensor::Uninit(x->value.rows(), x->value.cols());
  const size_t dim = dx.cols();
  for (size_t s = 0; s < segs; ++s) {
    const float* gr = n.grad.RowPtr(s);
    for (size_t i = indptr[s]; i < indptr[s + 1]; ++i) {
      std::memcpy(dx.RowPtr(i), gr, dim * sizeof(float));
    }
  }
  x->AccumulateGrad(dx);
}

// The exact expression MeanRows' backward used per element: d = g * (1/len).
void SegmentMeanGrad(ag::Node& n, const size_t* indptr, size_t segs) {
  ag::Node* x = n.parent(0);
  if (!x->requires_grad) return;
  Tensor dx = Tensor::Uninit(x->value.rows(), x->value.cols());
  const size_t dim = dx.cols();
  for (size_t s = 0; s < segs; ++s) {
    const size_t lo = indptr[s];
    const size_t hi = indptr[s + 1];
    if (lo == hi) continue;
    const float inv = 1.0f / static_cast<float>(hi - lo);
    const float* gr = n.grad.RowPtr(s);
    for (size_t i = lo; i < hi; ++i) {
      float* d = dx.RowPtr(i);
      for (size_t j = 0; j < dim; ++j) d[j] = gr[j] * inv;
    }
  }
  x->AccumulateGrad(dx);
}

// Routes each g element to its segment's argmax row; other rows get zero.
void SegmentMaxGrad(ag::Node& n, const uint32_t* argmax, size_t segs) {
  ag::Node* x = n.parent(0);
  if (!x->requires_grad) return;
  Tensor dx(x->value.rows(), x->value.cols());
  const size_t dim = dx.cols();
  for (size_t s = 0; s < segs; ++s) {
    const float* gr = n.grad.RowPtr(s);
    const uint32_t* a = argmax + s * dim;
    for (size_t j = 0; j < dim; ++j) {
      if (a[j] == kernels::kNoSegmentRow) continue;
      dx.RowPtr(a[j])[j] += gr[j];
    }
  }
  x->AccumulateGrad(dx);
}

// Segment-grouped scatter into the table gradient. Per segment (in segment
// order), duplicate rows' contributions are chained into `acc` first, then
// added to the destination with one add per element — the same elementary
// accumulation order as the per-level ScatterGatherGrad sequence the fused
// gather replaced, without materializing one dense gradient per level.
void SegmentedScatterGrad(ag::Node& n, const int32_t* idx,
                          const size_t* indptr, size_t segs) {
  ag::Node* table = n.parent(0);
  if (!table->requires_grad) return;
  Tensor& dest = table->GradAccumulator();
  const size_t dim = dest.cols();
  static thread_local std::vector<float> acc;
  acc.resize(dim);
  for (size_t s = 0; s < segs; ++s) {
    const size_t lo = indptr[s];
    const size_t hi = indptr[s + 1];
    for (size_t i = lo; i < hi; ++i) {
      const int32_t row = idx[i];
      bool first = true;
      for (size_t p = lo; p < i; ++p) {
        if (idx[p] == row) {
          first = false;
          break;
        }
      }
      if (!first) continue;  // folded into the first occurrence's chain
      const float* gr = n.grad.RowPtr(i);
      std::memcpy(acc.data(), gr, dim * sizeof(float));
      for (size_t p = i + 1; p < hi; ++p) {
        if (idx[p] != row) continue;
        const float* gp = n.grad.RowPtr(p);
        for (size_t j = 0; j < dim; ++j) acc[j] += gp[j];
      }
      float* d = dest.RowPtr(static_cast<size_t>(row));
      for (size_t j = 0; j < dim; ++j) d[j] += acc[j];
    }
  }
}

ag::Var SegmentReduceOp(const ag::Var& x, const MinibatchFrontier& f,
                        void (*kernel)(const float*, size_t, const size_t*,
                                       size_t, float*),
                        void (*grad)(ag::Node&, const size_t*, size_t)) {
  CheckFrontierCoversBlock(f, x->value);
  const size_t segs = f.num_segments();
  const size_t dim = x->value.cols();
  Tensor out = Tensor::Uninit(segs, dim);
  if (segs > 0) {
    kernel(x->value.rows() > 0 ? x->value.RowPtr(0) : nullptr, dim,
           f.indptr.data(), segs, out.RowPtr(0));
  }
  // The closure copies the indptr: callers reuse thread_local scratch
  // frontiers, so the op must not alias them.
  return ag::MakeOp(std::move(out), {x}, [own = f.indptr, grad](ag::Node& n) {
    grad(n, own.data(), own.size() - 1);
  });
}

}  // namespace

ag::Var SegmentSum(const ag::Var& x, const MinibatchFrontier& f) {
  return SegmentReduceOp(x, f, kernels::SegmentSum, SegmentSumGrad);
}

ag::Var SegmentMean(const ag::Var& x, const MinibatchFrontier& f) {
  return SegmentReduceOp(x, f, kernels::SegmentMean, SegmentMeanGrad);
}

ag::Var SegmentMax(const ag::Var& x, const MinibatchFrontier& f) {
  CheckFrontierCoversBlock(f, x->value);
  const size_t segs = f.num_segments();
  const size_t dim = x->value.cols();
  Tensor out = Tensor::Uninit(segs, dim);
  std::vector<uint32_t> argmax(segs * dim);
  if (segs > 0) {
    kernels::SegmentMax(x->value.rows() > 0 ? x->value.RowPtr(0) : nullptr,
                        dim, f.indptr.data(), segs, out.RowPtr(0),
                        argmax.data());
  }
  return ag::MakeOp(std::move(out), {x},
                    [own = std::move(argmax)](ag::Node& n) {
                      SegmentMaxGrad(n, own.data(),
                                     own.size() / n.value.cols());
                    });
}

ag::Var GatherRowsSegmented(const ag::Var& table, const MinibatchFrontier& f) {
  HYBRIDGNN_CHECK(f.indptr.back() == f.indices.size())
      << "frontier indptr/indices mismatch: " << f.indptr.back() << " vs "
      << f.indices.size();
  Tensor out = hybridgnn::GatherRows(table->value, f.indices);
  return ag::MakeOp(std::move(out), {table},
                    [own_idx = f.indices, own_ptr = f.indptr](ag::Node& n) {
                      SegmentedScatterGrad(n, own_idx.data(), own_ptr.data(),
                                           own_ptr.size() - 1);
                    });
}

ag::Var SpMM(const SparseMatrix& s, const ag::Var& x) {
  HYBRIDGNN_CHECK(s.symmetric)
      << "SpMM(SparseMatrix) requires symmetric S; use RelationOperator";
  return SpMMImpl(s, s, x);
}

ag::Var SpMM(const RelationOperator& op, const ag::Var& x) {
  return SpMMImpl(op.forward, op.transpose, x);
}

SparseMatrix NormalizedAdjacency(const MultiplexHeteroGraph& g) {
  const size_t n = g.num_nodes();
  // Union adjacency with self loops; degrees counted once per distinct
  // neighbor pair occurrence (parallel relations add weight, which is a
  // reasonable multigraph treatment).
  std::vector<size_t> degree(n, 1);  // self loop
  for (const auto& e : g.edges()) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::vector<float> inv_sqrt(n);
  for (size_t i = 0; i < n; ++i) {
    inv_sqrt[i] = 1.0f / std::sqrt(static_cast<float>(degree[i]));
  }
  SparseMatrix s;
  s.rows = s.cols = n;
  s.symmetric = true;
  s.offsets.assign(n + 1, 0);
  for (const auto& e : g.edges()) {
    ++s.offsets[e.src + 1];
    ++s.offsets[e.dst + 1];
  }
  for (size_t i = 0; i < n; ++i) ++s.offsets[i + 1];  // self loops
  for (size_t i = 0; i < n; ++i) s.offsets[i + 1] += s.offsets[i];
  s.col_idx.resize(s.offsets[n]);
  s.values.resize(s.offsets[n]);
  std::vector<size_t> cursor(s.offsets.begin(), s.offsets.end() - 1);
  auto put = [&](size_t i, size_t j) {
    s.col_idx[cursor[i]] = static_cast<uint32_t>(j);
    s.values[cursor[i]] = inv_sqrt[i] * inv_sqrt[j];
    ++cursor[i];
  };
  for (const auto& e : g.edges()) {
    put(e.src, e.dst);
    put(e.dst, e.src);
  }
  for (size_t i = 0; i < n; ++i) put(i, i);
  return s;
}

RelationOperator RelationAdjacency(const MultiplexHeteroGraph& g,
                                   RelationId r) {
  const size_t n = g.num_nodes();
  RelationOperator op;
  SparseMatrix& f = op.forward;
  f.rows = f.cols = n;
  f.offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    f.offsets[v + 1] = f.offsets[v] + g.Degree(v, r);
  }
  f.col_idx.resize(f.offsets[n]);
  f.values.resize(f.offsets[n]);
  for (NodeId v = 0; v < n; ++v) {
    auto nbrs = g.Neighbors(v, r);
    const float inv = nbrs.empty() ? 0.0f : 1.0f / nbrs.size();
    size_t at = f.offsets[v];
    for (NodeId u : nbrs) {
      f.col_idx[at] = u;
      f.values[at] = inv;
      ++at;
    }
  }
  // Transpose of D^-1 A: entry (u,v) = 1/deg(v) for each edge (v,u).
  SparseMatrix& t = op.transpose;
  t.rows = t.cols = n;
  t.offsets.assign(n + 1, 0);
  for (size_t e = 0; e < f.col_idx.size(); ++e) ++t.offsets[f.col_idx[e] + 1];
  for (size_t i = 0; i < n; ++i) t.offsets[i + 1] += t.offsets[i];
  t.col_idx.resize(f.col_idx.size());
  t.values.resize(f.values.size());
  std::vector<size_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    for (size_t e = f.offsets[v]; e < f.offsets[v + 1]; ++e) {
      const uint32_t u = f.col_idx[e];
      t.col_idx[cursor[u]] = v;
      t.values[cursor[u]] = f.values[e];
      ++cursor[u];
    }
  }
  return op;
}

}  // namespace hybridgnn
