#ifndef HYBRIDGNN_TENSOR_AUTOGRAD_H_
#define HYBRIDGNN_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace hybridgnn::ag {

/// Reverse-mode automatic differentiation over Tensor.
///
/// A computation is built dynamically: every op returns a `Var` (shared node)
/// that owns its parents and a closure that pushes gradients back to them.
/// `Backward(root)` seeds d(root)=1 (root must be 1x1) and propagates in
/// reverse topological order. Gradients accumulate across calls until
/// `ZeroGrad` is invoked, matching the familiar PyTorch contract. A graph
/// lives exactly as long as the last Var referring into it.

class Node;
using Var = std::shared_ptr<Node>;

/// Backward closure of an op node: reads the node's grad and its parents
/// (through `n.parent(i)`) and accumulates into the parents' grads.
using BackwardFn = std::function<void(Node&)>;

class Node {
 public:
  Node(Tensor value, bool requires_grad)
      : value(std::move(value)), requires_grad(requires_grad) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Tensor value;
  Tensor grad;  // Lazily allocated to value's shape on first accumulation.
  bool requires_grad;
  // Epoch stamp for Backward's topological sort: a node is "visited" when
  // its mark equals the current traversal epoch, replacing the per-call
  // unordered_set. Only op nodes (which are always thread-private) are ever
  // stamped; shared leaves are not traversed, so there is no cross-thread
  // write in data-parallel training.
  uint64_t visit_mark = 0;

  bool has_backward() const { return static_cast<bool>(backward_); }
  size_t num_parents() const { return parents_.size(); }
  Node* parent(size_t i) const { return parents_[i].get(); }

  /// grad += g, allocating grad on first use.
  void AccumulateGrad(const Tensor& g);
  /// The dense tensor gradient contributions for this node land in: the
  /// per-thread sink slot when a GradSinkScope is active and this is a
  /// trainable leaf (same diversion rule as AccumulateGrad), otherwise the
  /// node's own grad — zero-materialized to value's shape on first use.
  /// For sparse backward ops (segmented scatters) that accumulate touched
  /// rows in place instead of building a dense per-call scratch gradient.
  Tensor& GradAccumulator();
  /// Clears the gradient (keeps allocation if shape already set).
  void ZeroGrad();

  void InvokeBackward() { backward_(*this); }

 private:
  friend Var MakeOp(Tensor value, std::span<const Var> parents,
                    BackwardFn backward);

  BackwardFn backward_;
  std::vector<Var> parents_;  // only set when the node needs a backward
};

/// RAII scope that redirects *leaf-parameter* gradient accumulation on the
/// current thread into a private map keyed by Node pointer, instead of the
/// node's own `grad` field. Interior op nodes are unaffected (they are
/// built per-thread, so their grads never race); only shared trainable
/// leaves (requires_grad set, no backward fn) are redirected.
///
/// This is what makes data-parallel minibatch training safe: each worker
/// runs Backward on its own subgraph under a GradSinkScope, and the main
/// thread then reduces the per-worker sinks into the real `grad` fields
/// before the optimizer step. Nested scopes restore the previous sink on
/// destruction. Sink slot tensors belong to the sink map, so they can be
/// reused (zeroed, not destroyed) across minibatches.
class GradSinkScope {
 public:
  using Sink = std::unordered_map<Node*, Tensor>;
  explicit GradSinkScope(Sink* sink);
  ~GradSinkScope();
  GradSinkScope(const GradSinkScope&) = delete;
  GradSinkScope& operator=(const GradSinkScope&) = delete;

 private:
  Sink* prev_;
};

/// Creates a non-trainable node (no gradient tracked unless a trainable
/// ancestor is attached downstream).
Var Constant(Tensor value);
/// Creates a trainable leaf (requires_grad = true).
Var Param(Tensor value);

/// Builds an op node from `value`, its parents, and a backward callable
/// `void(Node&)`. If no parent needs gradients the node is a plain constant
/// (backward and parents dropped). Backward callables should read their
/// parents via `n.parent(i)` rather than capturing Vars.
Var MakeOp(Tensor value, std::span<const Var> parents, BackwardFn backward);
inline Var MakeOp(Tensor value, std::initializer_list<Var> parents,
                  BackwardFn backward) {
  return MakeOp(std::move(value),
                std::span<const Var>(parents.begin(), parents.size()),
                std::move(backward));
}

/// Runs backpropagation from `root`, which must be a 1x1 scalar. Reuses
/// per-thread scratch (traversal stack, topological order, visit epochs) so
/// the traversal itself allocates nothing once warm.
void Backward(const Var& root);

// ----- Differentiable ops (shapes follow tensor_ops.h) -----
Var MatMul(const Var& a, const Var& b);
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var AddRowBroadcast(const Var& a, const Var& bias);
Var Scale(const Var& a, float alpha);
Var Transpose(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var SoftmaxRows(const Var& a);
Var RowwiseDot(const Var& a, const Var& b);
Var MeanRows(const Var& a);
Var SumRows(const Var& a);
/// Mean of all elements -> 1x1.
Var MeanAll(const Var& a);
/// Sum of all elements -> 1x1.
Var SumAll(const Var& a);
/// The initializer_list overloads let braced call sites concatenate without
/// materializing a temporary std::vector.
Var ConcatRows(std::span<const Var> parts);
Var ConcatRows(const std::vector<Var>& parts);
Var ConcatRows(std::initializer_list<Var> parts);
Var ConcatCols(std::span<const Var> parts);
Var ConcatCols(const std::vector<Var>& parts);
Var ConcatCols(std::initializer_list<Var> parts);
/// Rows [start, start+count) of `a`.
Var SliceRows(const Var& a, size_t start, size_t count);
/// Block-diagonal batched products over `blocks` contiguous, equal row
/// blocks: block p of `a` [blocks*m, k] times block p of `b` [blocks*k, n]
/// gives block p of the [blocks*m, n] result. A block's value and gradients
/// do not depend on the other blocks, so each equals the op run on that
/// block alone.
Var BatchedMatMul(const Var& a, const Var& b, size_t blocks);
/// The same with every block of `b` [blocks*n, k] transposed: block p of
/// the [blocks*m, n] result is a_p b_p^T (one dot product per entry).
Var BatchedMatMulTransB(const Var& a, const Var& b, size_t blocks);
/// Gathers rows of a trainable table; backward scatters (accumulating
/// duplicates). `indices` entries must be valid row ids of `table`. The
/// span overload copies the indices into the op, so callers can pass
/// reused scratch.
Var GatherRows(const Var& table, std::span<const int32_t> indices);
Var GatherRows(const Var& table, std::vector<int32_t> indices);

// ----- Losses -----
/// Mean binary cross-entropy with logits. `logits` is [m,1]; `targets` has m
/// entries in {0,1} (soft labels allowed).
Var BceWithLogits(const Var& logits, const std::vector<float>& targets);

}  // namespace hybridgnn::ag

#endif  // HYBRIDGNN_TENSOR_AUTOGRAD_H_
