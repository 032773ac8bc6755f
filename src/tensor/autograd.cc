#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "kernels/kernels.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn::ag {

namespace {
thread_local GradSinkScope::Sink* g_grad_sink = nullptr;
}  // namespace

// ----- GradSinkScope -----

GradSinkScope::GradSinkScope(Sink* sink) : prev_(g_grad_sink) {
  g_grad_sink = sink;
}

GradSinkScope::~GradSinkScope() { g_grad_sink = prev_; }

// ----- Node -----

void Node::AccumulateGrad(const Tensor& g) {
  if (g_grad_sink != nullptr && requires_grad && !has_backward()) {
    // Shared trainable leaf under a sink scope: divert to the per-thread
    // buffer so concurrent Backward calls never touch the shared `grad`.
    Tensor& slot = (*g_grad_sink)[this];
    if (slot.empty()) slot = Tensor(value.rows(), value.cols());
    HYBRIDGNN_CHECK(slot.SameShape(g))
        << "gradient shape mismatch: " << slot.ShapeString() << " vs "
        << g.ShapeString();
    slot.AddInPlace(g);
    return;
  }
  if (grad.empty()) {
    // First accumulation: copy instead of zero-fill + add.
    grad = g;
    return;
  }
  HYBRIDGNN_CHECK(grad.SameShape(g))
      << "gradient shape mismatch: " << grad.ShapeString() << " vs "
      << g.ShapeString();
  grad.AddInPlace(g);
}

void Node::ZeroGrad() {
  if (!grad.empty()) grad.Zero();
}

Tensor& Node::GradAccumulator() {
  if (g_grad_sink != nullptr && requires_grad && !has_backward()) {
    Tensor& slot = (*g_grad_sink)[this];
    if (slot.empty()) slot = Tensor(value.rows(), value.cols());
    return slot;
  }
  if (grad.empty()) grad = Tensor(value.rows(), value.cols());
  return grad;
}

Var Constant(Tensor value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

Var Param(Tensor value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
}

Var MakeOp(Tensor value, std::span<const Var> parents, BackwardFn backward) {
  bool req = false;
  for (const Var& p : parents) req |= p->requires_grad;
  auto node = std::make_shared<Node>(std::move(value), req);
  if (req) {
    node->parents_.assign(parents.begin(), parents.end());
    node->backward_ = std::move(backward);
  }
  return node;
}

// ----- Backward -----

namespace {

/// Per-thread traversal scratch: reused across Backward calls so the topo
/// sort performs no allocations once warm. The epoch counter versions the
/// visit marks stamped on (thread-private) op nodes.
struct BackwardScratch {
  std::vector<Node*> order;
  std::vector<std::pair<Node*, uint32_t>> stack;
  uint64_t epoch = 0;
};

BackwardScratch& Scratch() {
  static thread_local BackwardScratch scratch;
  return scratch;
}

}  // namespace

void Backward(const Var& root) {
  HYBRIDGNN_CHECK(root->value.rows() == 1 && root->value.cols() == 1)
      << "Backward root must be scalar, got " << root->value.ShapeString();
  if (!root->requires_grad) return;
  BackwardScratch& s = Scratch();
  s.order.clear();
  const uint64_t epoch = ++s.epoch;
  if (root->has_backward()) {
    // Iterative post-order DFS over parents. Only op nodes enter the order:
    // leaves have no backward fn to run (their grads are filled by their
    // consumers), and skipping them keeps the visit marks free of
    // cross-thread writes on shared parameters.
    s.stack.clear();
    s.stack.emplace_back(root.get(), 0);
    root->visit_mark = epoch;
    while (!s.stack.empty()) {
      auto& [node, next_child] = s.stack.back();
      if (next_child < node->num_parents()) {
        Node* child = node->parent(next_child);
        ++next_child;
        if (child->has_backward() && child->visit_mark != epoch) {
          child->visit_mark = epoch;
          s.stack.emplace_back(child, 0);
        }
      } else {
        s.order.push_back(node);
        s.stack.pop_back();
      }
    }
  }
  root->AccumulateGrad(Tensor::Ones(1, 1));
  // `order` is post-order (inputs first); walk it backwards.
  for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
    Node* node = *it;
    if (!node->grad.empty()) {
      node->InvokeBackward();
    }
  }
}

// ----- Ops -----
//
// Backward closures read their operands through n.parent(i) instead of
// capturing Vars: the node already owns its parents.

Var MatMul(const Var& a, const Var& b) {
  Tensor out = hybridgnn::MatMul(a->value, b->value);
  return MakeOp(std::move(out), {a, b}, [](Node& n) {
    Node* a = n.parent(0);
    Node* b = n.parent(1);
    if (a->requires_grad) a->AccumulateGrad(MatMulTransB(n.grad, b->value));
    if (b->requires_grad) b->AccumulateGrad(MatMulTransA(a->value, n.grad));
  });
}

Var Add(const Var& a, const Var& b) {
  return MakeOp(hybridgnn::Add(a->value, b->value), {a, b}, [](Node& n) {
    Node* a = n.parent(0);
    Node* b = n.parent(1);
    if (a->requires_grad) a->AccumulateGrad(n.grad);
    if (b->requires_grad) b->AccumulateGrad(n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeOp(hybridgnn::Sub(a->value, b->value), {a, b}, [](Node& n) {
    Node* a = n.parent(0);
    Node* b = n.parent(1);
    if (a->requires_grad) a->AccumulateGrad(n.grad);
    if (b->requires_grad) b->AccumulateGrad(hybridgnn::Scale(n.grad, -1.0f));
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeOp(hybridgnn::Mul(a->value, b->value), {a, b}, [](Node& n) {
    Node* a = n.parent(0);
    Node* b = n.parent(1);
    if (a->requires_grad) {
      a->AccumulateGrad(hybridgnn::Mul(n.grad, b->value));
    }
    if (b->requires_grad) {
      b->AccumulateGrad(hybridgnn::Mul(n.grad, a->value));
    }
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  return MakeOp(hybridgnn::AddRowBroadcast(a->value, bias->value), {a, bias},
                [](Node& n) {
                  Node* a = n.parent(0);
                  Node* bias = n.parent(1);
                  if (a->requires_grad) a->AccumulateGrad(n.grad);
                  if (bias->requires_grad) {
                    bias->AccumulateGrad(hybridgnn::SumRows(n.grad));
                  }
                });
}

Var Scale(const Var& a, float alpha) {
  return MakeOp(hybridgnn::Scale(a->value, alpha), {a}, [alpha](Node& n) {
    Node* a = n.parent(0);
    if (a->requires_grad) a->AccumulateGrad(hybridgnn::Scale(n.grad, alpha));
  });
}

Var Transpose(const Var& a) {
  return MakeOp(hybridgnn::Transpose(a->value), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (a->requires_grad) a->AccumulateGrad(hybridgnn::Transpose(n.grad));
  });
}

Var Sigmoid(const Var& a) {
  Tensor s = hybridgnn::Sigmoid(a->value);
  return MakeOp(std::move(s), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    Tensor da = Tensor::Uninit(n.grad.rows(), n.grad.cols());
    const float* g = n.grad.data();
    const float* sv = n.value.data();
    float* d = da.data();
    for (size_t i = 0; i < da.size(); ++i) d[i] = g[i] * sv[i] * (1.0f - sv[i]);
    a->AccumulateGrad(da);
  });
}

Var Tanh(const Var& a) {
  Tensor t = hybridgnn::Tanh(a->value);
  return MakeOp(std::move(t), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    Tensor da = Tensor::Uninit(n.grad.rows(), n.grad.cols());
    const float* g = n.grad.data();
    const float* tv = n.value.data();
    float* d = da.data();
    for (size_t i = 0; i < da.size(); ++i) d[i] = g[i] * (1.0f - tv[i] * tv[i]);
    a->AccumulateGrad(da);
  });
}

Var Relu(const Var& a) {
  return MakeOp(hybridgnn::Relu(a->value), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    Tensor da = Tensor::Uninit(n.grad.rows(), n.grad.cols());
    const float* g = n.grad.data();
    const float* x = a->value.data();
    float* d = da.data();
    for (size_t i = 0; i < da.size(); ++i) d[i] = x[i] > 0.0f ? g[i] : 0.0f;
    a->AccumulateGrad(da);
  });
}

Var SoftmaxRows(const Var& a) {
  Tensor s = hybridgnn::SoftmaxRows(a->value);
  return MakeOp(std::move(s), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    // da_ij = s_ij * (g_ij - sum_k g_ik s_ik)
    Tensor da = Tensor::Uninit(n.grad.rows(), n.grad.cols());
    for (size_t i = 0; i < n.grad.rows(); ++i) {
      const float* g = n.grad.RowPtr(i);
      const float* s = n.value.RowPtr(i);
      float dot = 0.0f;
      for (size_t j = 0; j < n.grad.cols(); ++j) dot += g[j] * s[j];
      float* d = da.RowPtr(i);
      for (size_t j = 0; j < n.grad.cols(); ++j) d[j] = s[j] * (g[j] - dot);
    }
    a->AccumulateGrad(da);
  });
}

Var RowwiseDot(const Var& a, const Var& b) {
  return MakeOp(hybridgnn::RowwiseDot(a->value, b->value), {a, b},
                [](Node& n) {
                  auto scatter = [&n](Node* dst, Node* other) {
                    Tensor d = Tensor::Uninit(dst->value.rows(),
                                              dst->value.cols());
                    for (size_t i = 0; i < d.rows(); ++i) {
                      const float gi = n.grad.At(i, 0);
                      const float* o = other->value.RowPtr(i);
                      float* dr = d.RowPtr(i);
                      for (size_t j = 0; j < d.cols(); ++j) dr[j] = gi * o[j];
                    }
                    dst->AccumulateGrad(d);
                  };
                  Node* a = n.parent(0);
                  Node* b = n.parent(1);
                  if (a->requires_grad) scatter(a, b);
                  if (b->requires_grad) scatter(b, a);
                });
}

Var MeanRows(const Var& a) {
  return MakeOp(hybridgnn::MeanRows(a->value), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    const float inv = 1.0f / static_cast<float>(a->value.rows());
    Tensor da = Tensor::Uninit(a->value.rows(), a->value.cols());
    const float* g = n.grad.RowPtr(0);
    for (size_t i = 0; i < da.rows(); ++i) {
      float* d = da.RowPtr(i);
      for (size_t j = 0; j < da.cols(); ++j) d[j] = g[j] * inv;
    }
    a->AccumulateGrad(da);
  });
}

Var SumRows(const Var& a) {
  return MakeOp(hybridgnn::SumRows(a->value), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    Tensor da = Tensor::Uninit(a->value.rows(), a->value.cols());
    const float* g = n.grad.RowPtr(0);
    for (size_t i = 0; i < da.rows(); ++i) {
      float* d = da.RowPtr(i);
      for (size_t j = 0; j < da.cols(); ++j) d[j] = g[j];
    }
    a->AccumulateGrad(da);
  });
}

Var MeanAll(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a->value.size());
  Tensor out(1, 1);
  out.At(0, 0) = static_cast<float>(a->value.Sum()) * inv;
  return MakeOp(std::move(out), {a}, [inv](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    Tensor da = Tensor::Full(a->value.rows(), a->value.cols(),
                             n.grad.At(0, 0) * inv);
    a->AccumulateGrad(da);
  });
}

Var SumAll(const Var& a) {
  Tensor out(1, 1);
  out.At(0, 0) = static_cast<float>(a->value.Sum());
  return MakeOp(std::move(out), {a}, [](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    Tensor da = Tensor::Full(a->value.rows(), a->value.cols(),
                             n.grad.At(0, 0));
    a->AccumulateGrad(da);
  });
}

Var ConcatRows(std::span<const Var> parts) {
  HYBRIDGNN_CHECK(!parts.empty()) << "ConcatRows of empty list";
  const size_t cols = parts[0]->value.cols();
  size_t rows = 0;
  for (const auto& p : parts) {
    HYBRIDGNN_CHECK(p->value.cols() == cols) << "ConcatRows column mismatch";
    rows += p->value.rows();
  }
  Tensor out = Tensor::Uninit(rows, cols);
  size_t at = 0;
  for (const auto& p : parts) {
    std::copy(p->value.data(), p->value.data() + p->value.size(),
              out.RowPtr(at));
    at += p->value.rows();
  }
  return MakeOp(std::move(out), parts, [](Node& n) {
    size_t at = 0;
    for (size_t i = 0; i < n.num_parents(); ++i) {
      Node* p = n.parent(i);
      const size_t r = p->value.rows();
      if (p->requires_grad) {
        Tensor slice = Tensor::Uninit(r, p->value.cols());
        std::copy(n.grad.RowPtr(at), n.grad.RowPtr(at) + slice.size(),
                  slice.data());
        p->AccumulateGrad(slice);
      }
      at += r;
    }
  });
}

Var ConcatCols(std::span<const Var> parts) {
  HYBRIDGNN_CHECK(!parts.empty()) << "ConcatCols of empty list";
  const size_t rows = parts[0]->value.rows();
  size_t cols = 0;
  for (const auto& p : parts) {
    HYBRIDGNN_CHECK(p->value.rows() == rows) << "ConcatCols row mismatch";
    cols += p->value.cols();
  }
  Tensor out = Tensor::Uninit(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    size_t at = 0;
    for (const auto& p : parts) {
      const float* src = p->value.RowPtr(i);
      std::copy(src, src + p->value.cols(), out.RowPtr(i) + at);
      at += p->value.cols();
    }
  }
  return MakeOp(std::move(out), parts, [](Node& n) {
    size_t at = 0;
    for (size_t i = 0; i < n.num_parents(); ++i) {
      Node* p = n.parent(i);
      const size_t c = p->value.cols();
      if (p->requires_grad) {
        Tensor slice = Tensor::Uninit(p->value.rows(), c);
        for (size_t r = 0; r < slice.rows(); ++r) {
          const float* src = n.grad.RowPtr(r) + at;
          std::copy(src, src + c, slice.RowPtr(r));
        }
        p->AccumulateGrad(slice);
      }
      at += c;
    }
  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  return ConcatRows(std::span<const Var>(parts));
}

Var ConcatRows(std::initializer_list<Var> parts) {
  return ConcatRows(std::span<const Var>(parts.begin(), parts.size()));
}

Var ConcatCols(const std::vector<Var>& parts) {
  return ConcatCols(std::span<const Var>(parts));
}

Var ConcatCols(std::initializer_list<Var> parts) {
  return ConcatCols(std::span<const Var>(parts.begin(), parts.size()));
}

Var SliceRows(const Var& a, size_t start, size_t count) {
  HYBRIDGNN_CHECK(start + count <= a->value.rows())
      << "SliceRows out of range";
  Tensor out = Tensor::Uninit(count, a->value.cols());
  std::copy(a->value.RowPtr(start), a->value.RowPtr(start) + out.size(),
            out.data());
  return MakeOp(std::move(out), {a}, [start](Node& n) {
    Node* a = n.parent(0);
    if (!a->requires_grad) return;
    // Zero-initialized: only the sliced rows carry gradient.
    Tensor da(a->value.rows(), a->value.cols());
    std::copy(n.grad.data(), n.grad.data() + n.grad.size(),
              da.RowPtr(start));
    a->AccumulateGrad(da);
  });
}

namespace {

// Raw row-major block products behind the batched matmuls: `AB` forms
// c[m, n] (+)= a[m, k] b[k, n] as axpys of b's rows, `ABt` forms
// c[m, n] = a[m, k] b[n, k]^T as dots of rows, and `AtB` forms
// c[k, n] += a[m, k]^T g[m, n] as axpys of g's rows. Every kernel call
// spans a full row, so no block is ever transposed.

void BlockAB(const float* a, const float* b, size_t m, size_t k, size_t n,
             float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      kernels::Axpy(av, b + p * n, c + i * n, n);
    }
  }
}

void BlockABt(const float* a, const float* b, size_t m, size_t k, size_t n,
              float* c) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      c[i * n + j] = kernels::Dot(a + i * k, b + j * k, k);
    }
  }
}

void BlockAtB(const float* a, const float* g, size_t m, size_t k, size_t n,
              float* c) {
  for (size_t p = 0; p < m; ++p) {
    for (size_t i = 0; i < k; ++i) {
      const float av = a[p * k + i];
      if (av == 0.0f) continue;
      kernels::Axpy(av, g + p * n, c + i * n, n);
    }
  }
}

}  // namespace

Var BatchedMatMul(const Var& a, const Var& b, size_t blocks) {
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  HYBRIDGNN_CHECK(blocks > 0 && av.rows() % blocks == 0 &&
                  bv.rows() == blocks * av.cols())
      << "BatchedMatMul " << av.ShapeString() << " x " << bv.ShapeString()
      << " in " << blocks << " blocks";
  const size_t m = av.rows() / blocks, k = av.cols(), n = bv.cols();
  Tensor out(av.rows(), n);
  for (size_t p = 0; p < blocks; ++p) {
    BlockAB(av.data() + p * m * k, bv.data() + p * k * n, m, k, n,
            out.data() + p * m * n);
  }
  return MakeOp(std::move(out), {a, b}, [blocks](Node& node) {
    Node* a = node.parent(0);
    Node* b = node.parent(1);
    const size_t m = a->value.rows() / blocks, k = a->value.cols();
    const size_t n = b->value.cols();
    const float* g = node.grad.data();
    if (a->requires_grad) {  // da_p = g_p b_p^T
      Tensor da = Tensor::Uninit(a->value.rows(), k);
      for (size_t p = 0; p < blocks; ++p) {
        BlockABt(g + p * m * n, b->value.data() + p * k * n, m, n, k,
                 da.data() + p * m * k);
      }
      a->AccumulateGrad(da);
    }
    if (b->requires_grad) {  // db_p = a_p^T g_p
      Tensor db(b->value.rows(), n);
      for (size_t p = 0; p < blocks; ++p) {
        BlockAtB(a->value.data() + p * m * k, g + p * m * n, m, k, n,
                 db.data() + p * k * n);
      }
      b->AccumulateGrad(db);
    }
  });
}

Var BatchedMatMulTransB(const Var& a, const Var& b, size_t blocks) {
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  HYBRIDGNN_CHECK(blocks > 0 && av.rows() % blocks == 0 &&
                  bv.rows() % blocks == 0 && av.cols() == bv.cols())
      << "BatchedMatMulTransB " << av.ShapeString() << " x "
      << bv.ShapeString() << " in " << blocks << " blocks";
  const size_t m = av.rows() / blocks, k = av.cols();
  const size_t n = bv.rows() / blocks;
  Tensor out = Tensor::Uninit(av.rows(), n);
  for (size_t p = 0; p < blocks; ++p) {
    BlockABt(av.data() + p * m * k, bv.data() + p * n * k, m, k, n,
             out.data() + p * m * n);
  }
  return MakeOp(std::move(out), {a, b}, [blocks](Node& node) {
    Node* a = node.parent(0);
    Node* b = node.parent(1);
    const size_t m = a->value.rows() / blocks, k = a->value.cols();
    const size_t n = b->value.rows() / blocks;
    const float* g = node.grad.data();
    if (a->requires_grad) {  // da_p = g_p b_p
      Tensor da(a->value.rows(), k);
      for (size_t p = 0; p < blocks; ++p) {
        BlockAB(g + p * m * n, b->value.data() + p * n * k, m, n, k,
                da.data() + p * m * k);
      }
      a->AccumulateGrad(da);
    }
    if (b->requires_grad) {  // db_p = g_p^T a_p
      Tensor db(b->value.rows(), k);
      for (size_t p = 0; p < blocks; ++p) {
        BlockAtB(g + p * m * n, a->value.data() + p * m * k, m, n, k,
                 db.data() + p * n * k);
      }
      b->AccumulateGrad(db);
    }
  });
}

namespace {

void ScatterGatherGrad(Node& n, const int32_t* indices, size_t count) {
  Node* table = n.parent(0);
  if (!table->requires_grad) return;
  // Row-sparse: only the gathered rows of the accumulator are touched.
  ScatterAddRows(n.grad, std::span<const int32_t>(indices, count),
                 &table->GradAccumulator());
}

}  // namespace

Var GatherRows(const Var& table, std::span<const int32_t> indices) {
  Tensor out = hybridgnn::GatherRows(table->value, indices);
  // Copy the indices so the caller can reuse its scratch.
  return MakeOp(std::move(out), {table},
                [own = std::vector<int32_t>(indices.begin(),
                                            indices.end())](Node& n) {
                  ScatterGatherGrad(n, own.data(), own.size());
                });
}

Var GatherRows(const Var& table, std::vector<int32_t> indices) {
  return GatherRows(table, std::span<const int32_t>(indices));
}

Var BceWithLogits(const Var& logits, const std::vector<float>& targets) {
  HYBRIDGNN_CHECK(logits->value.cols() == 1 &&
                  logits->value.rows() == targets.size())
      << "BceWithLogits expects [m,1] logits matching targets";
  const size_t m = targets.size();
  double loss = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const float x = logits->value.At(i, 0);
    const float y = targets[i];
    // Stable: max(x,0) - x*y + log(1+exp(-|x|))
    loss += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::abs(x)));
  }
  Tensor out(1, 1);
  out.At(0, 0) = static_cast<float>(loss / static_cast<double>(m));
  return MakeOp(std::move(out), {logits}, [targets](Node& n) {
    Node* logits = n.parent(0);
    if (!logits->requires_grad) return;
    const size_t count = targets.size();
    const float scale = n.grad.At(0, 0) / static_cast<float>(count);
    Tensor d = Tensor::Uninit(count, 1);
    for (size_t i = 0; i < count; ++i) {
      const float x = logits->value.At(i, 0);
      const float s = 1.0f / (1.0f + std::exp(-x));
      d.At(i, 0) = scale * (s - targets[i]);
    }
    logits->AccumulateGrad(d);
  });
}

}  // namespace hybridgnn::ag
