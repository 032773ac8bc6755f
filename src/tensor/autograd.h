#ifndef HYBRIDGNN_TENSOR_AUTOGRAD_H_
#define HYBRIDGNN_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace hybridgnn::ag {

/// Reverse-mode automatic differentiation over Tensor.
///
/// A computation is built dynamically: every op returns a `Var` (shared node)
/// that remembers its parents and how to push gradients back to them.
/// `Backward(root)` seeds d(root)=1 (root must be 1x1) and propagates in
/// reverse topological order. Gradients accumulate across calls until
/// `ZeroGrad` is invoked, matching the familiar PyTorch contract.
///
/// Two allocation regimes exist for graph structure:
///
/// - Heap mode (no active TapeScope): each op node is a `make_shared<Node>`
///   owning its parents, and its backward closure lives on the heap. This is
///   the safe default for setup code and anything that lets a Var escape.
/// - Tape mode (inside a TapeScope): nodes, parent arrays, and backward
///   closures are bump-allocated from the current thread's Tape arena, and
///   `Var` handles alias the tape's anchor instead of owning a per-node
///   control block. Leaving the scope rewinds the arena (destroying the
///   nodes and recycling their tensor buffers through the TensorPool)
///   without returning memory to the OS, so a warm steady-state training
///   step performs zero graph-structure allocations. Vars produced under a
///   TapeScope are invalidated when the scope ends and MUST NOT outlive it
///   (the outermost scope CHECK-fails if any handle is still alive).
///
/// `Param` always allocates on the heap: parameters outlive every tape.

class Node;
using Var = std::shared_ptr<Node>;

/// Type-erased backward closure: a plain function pointer plus a context
/// object that lives either on the tape arena or on the heap (owned by the
/// node). Replaces std::function to keep op construction allocation-free in
/// tape mode.
using BackwardInvoke = void (*)(void* ctx, Node& self);

class Node {
 public:
  Node(Tensor value, bool requires_grad)
      : value(std::move(value)), requires_grad(requires_grad) {}
  ~Node() {
    if (ctx_destroy_ != nullptr) ctx_destroy_(backward_ctx_);
  }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Tensor value;
  Tensor grad;  // Lazily allocated to value's shape on first accumulation.
  bool requires_grad;
  bool on_tape = false;   // allocated from a Tape arena
  uint32_t num_parents = 0;
  // Epoch stamp for Backward's topological sort: a node is "visited" when
  // its mark equals the current traversal epoch, replacing the per-call
  // unordered_set. Only op nodes (which are always thread-private) are ever
  // stamped; shared leaves are not traversed, so there is no cross-thread
  // write in data-parallel training.
  uint64_t visit_mark = 0;

  bool has_backward() const { return backward_invoke_ != nullptr; }
  Node* parent(size_t i) const {
    return parents_ != nullptr ? parents_[i] : keepalive_[i].get();
  }

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

  void InvokeBackward() { backward_invoke_(backward_ctx_, *this); }

 private:
  friend class Tape;
  template <typename F>
  friend Var MakeOp(Tensor value, std::span<const Var> parents, F&& backward);

  BackwardInvoke backward_invoke_ = nullptr;
  void* backward_ctx_ = nullptr;
  void (*ctx_destroy_)(void*) = nullptr;  // heap mode: frees backward_ctx_
  Node** parents_ = nullptr;              // tape mode: arena-resident array
  std::vector<Var> keepalive_;            // heap mode: owns the parents
};

/// Per-thread bump arena for autograd graph structure (nodes, parent
/// arrays, backward closures). Memory is carved from geometrically grown
/// blocks; `Rewind` runs pending destructors and resets the bump pointer
/// without freeing blocks, so arenas reach a fixed footprint after the
/// first few minibatches. Use through TapeScope; Tape itself is not
/// thread-safe and must only be touched by its owning thread.
class Tape {
 public:
  Tape();
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// The tape installed by the innermost TapeScope on this thread, or
  /// nullptr when outside any scope (heap mode).
  static Tape* Current();

  /// Raw arena memory; alignment must be a power of two <= 64.
  void* Allocate(size_t bytes, size_t align);

  /// Constructs T in the arena, registering its destructor for Rewind when
  /// it is not trivially destructible.
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    void* mem = Allocate(sizeof(T), alignof(T));
    T* obj = new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(DtorEntry{
          [](void* p) { static_cast<T*>(p)->~T(); }, obj});
    }
    return obj;
  }

  /// Arena array of a trivially-destructible element type.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Holds a shared reference until the enclosing scope rewinds; used to
  /// keep external (heap) parents such as Params alive for the tape's ops.
  void Retain(const Var& v) { retained_.push_back(v); }

  /// Wraps an arena node in a Var that aliases this tape's anchor — no
  /// control-block allocation, but the handle dies with the scope.
  Var MakeVar(Node* node) { return Var(anchor_, node); }

  size_t bytes_used() const;
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// Process-wide bytes currently reserved by all tape arenas. A flat curve
  /// across steps means every thread's arena has reached steady state.
  static uint64_t TotalReservedBytes();

 private:
  friend class TapeScope;

  struct DtorEntry {
    void (*fn)(void*);
    void* obj;
  };
  struct Block {
    char* ptr;
    size_t size;
  };
  struct Mark {
    size_t block_idx;
    size_t block_off;
    size_t dtor_count;
    size_t retained_count;
  };

  Mark Position() const {
    return Mark{cur_block_, cur_off_, dtors_.size(), retained_.size()};
  }
  /// Runs destructors registered after `mark` (newest first) and resets the
  /// bump pointer; blocks stay allocated for reuse.
  void Rewind(const Mark& mark);

  void AddBlock(size_t min_size);

  std::vector<Block> blocks_;
  size_t cur_block_ = 0;
  size_t cur_off_ = 0;
  size_t bytes_reserved_ = 0;
  std::vector<DtorEntry> dtors_;
  std::vector<Var> retained_;
  std::shared_ptr<char> anchor_;
};

/// RAII scope that makes the calling thread's Tape the active arena for all
/// ops built inside it. Nests: an inner scope rewinds only its own
/// allocations. Declare the scope BEFORE any Var it should cover, so the
/// Vars are destroyed first when the block exits:
///
///   {
///     ag::TapeScope scope;            // must outlive the Vars below
///     ag::Var loss = BuildGraph(...);
///     ag::Backward(loss);
///     optimizer.Step();
///   }                                  // loss dies, then the arena rewinds
class TapeScope {
 public:
  TapeScope();
  ~TapeScope();
  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  Tape* tape_;
  Tape* prev_current_;
  Tape::Mark mark_;
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
/// destruction. Composes with TapeScope: sink slot tensors belong to the
/// sink map, not the tape, so they survive scope rewinds and can be reused
/// (zeroed, not destroyed) across minibatches.
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
/// ancestor is attached downstream). Arena-allocated under a TapeScope.
Var Constant(Tensor value);
/// Creates a trainable leaf (requires_grad = true). Always heap-allocated;
/// parameters outlive tapes.
Var Param(Tensor value);

/// Builds an op node from `value`, its parents, and a backward callable
/// `void(Node&)`. If no parent needs gradients the node is a plain constant
/// (backward dropped). Under a TapeScope the node, parent array, and
/// closure all live on the arena; otherwise they live on the heap, owned by
/// the returned Var. Backward callables should read their parents via
/// `n.parent(i)` (raw pointers) rather than capturing Vars.
template <typename F>
Var MakeOp(Tensor value, std::span<const Var> parents, F&& backward) {
  using Fn = std::decay_t<F>;
  bool req = false;
  for (const Var& p : parents) req |= p->requires_grad;
  Tape* tape = Tape::Current();
  if (tape == nullptr) {
    auto node = std::make_shared<Node>(std::move(value), req);
    if (req) {
      node->keepalive_.assign(parents.begin(), parents.end());
      node->num_parents = static_cast<uint32_t>(parents.size());
      Fn* ctx = new Fn(std::forward<F>(backward));
      node->backward_ctx_ = ctx;
      node->backward_invoke_ = [](void* c, Node& n) {
        (*static_cast<Fn*>(c))(n);
      };
      node->ctx_destroy_ = [](void* c) { delete static_cast<Fn*>(c); };
    }
    return node;
  }
  Node* node = tape->Create<Node>(std::move(value), req);
  node->on_tape = true;
  if (req) {
    Node** arr = tape->AllocateArray<Node*>(parents.size());
    for (size_t i = 0; i < parents.size(); ++i) {
      arr[i] = parents[i].get();
      if (!parents[i]->on_tape) tape->Retain(parents[i]);
    }
    node->parents_ = arr;
    node->num_parents = static_cast<uint32_t>(parents.size());
    Fn* ctx = tape->Create<Fn>(std::forward<F>(backward));
    node->backward_ctx_ = ctx;
    node->backward_invoke_ = [](void* c, Node& n) {
      (*static_cast<Fn*>(c))(n);
    };
  }
  return tape->MakeVar(node);
}

template <typename F>
Var MakeOp(Tensor value, std::initializer_list<Var> parents, F&& backward) {
  return MakeOp(std::move(value),
                std::span<const Var>(parents.begin(), parents.size()),
                std::forward<F>(backward));
}

/// Runs backpropagation from `root`, which must be a 1x1 scalar. Reuses
/// per-thread scratch (traversal stack, topological order, visit epochs) so
/// steady-state calls allocate nothing.
void Backward(const Var& root);

// ----- Differentiable ops (shapes follow tensor_ops.h) -----
Var MatMul(const Var& a, const Var& b);
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var AddRowBroadcast(const Var& a, const Var& bias);
Var Scale(const Var& a, float alpha);
Var Neg(const Var& a);
Var Transpose(const Var& a);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
/// Numerically stable log(sigmoid(x)).
Var LogSigmoid(const Var& a);
Var SoftmaxRows(const Var& a);
Var RowwiseDot(const Var& a, const Var& b);
Var MeanRows(const Var& a);
Var SumRows(const Var& a);
/// Mean of all elements -> 1x1.
Var MeanAll(const Var& a);
/// Sum of all elements -> 1x1.
Var SumAll(const Var& a);
/// The initializer_list overloads let braced call sites concatenate without
/// materializing a temporary std::vector (hot under a TapeScope).
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
/// span overload copies the indices into the active tape arena (or an
/// owned vector in heap mode), so callers can pass reused scratch.
Var GatherRows(const Var& table, std::span<const int32_t> indices);
Var GatherRows(const Var& table, std::vector<int32_t> indices);

// ----- Losses -----
/// Mean binary cross-entropy with logits. `logits` is [m,1]; `targets` has m
/// entries in {0,1} (soft labels allowed).
Var BceWithLogits(const Var& logits, const std::vector<float>& targets);

/// Skip-gram negative-sampling loss:
///   -mean(log sigmoid(pos)) - mean(log sigmoid(-neg))
/// `pos`/`neg` are [p,1] and [q,1] score columns. Either may be absent
/// (pass nullptr) when a batch has no such samples.
Var SgnsLoss(const Var& pos, const Var& neg);

}  // namespace hybridgnn::ag

#endif  // HYBRIDGNN_TENSOR_AUTOGRAD_H_
