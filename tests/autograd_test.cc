#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/tensor_ops.h"

// ----- Allocation tracking -----
//
// Global operator new/delete overrides: while `g_track_allocs` is set they
// record the largest single allocation in the process. Tensor buffers come
// from aligned operator new, so every tensor is seen.

namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<size_t> g_largest_alloc{0};

void* TrackedAlloc(size_t size, size_t align) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    size_t prev = g_largest_alloc.load(std::memory_order_relaxed);
    while (prev < size && !g_largest_alloc.compare_exchange_weak(
                              prev, size, std::memory_order_relaxed)) {
    }
  }
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) & ~(align - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(size_t size) { return TrackedAlloc(size, 0); }
void* operator new[](size_t size) { return TrackedAlloc(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return TrackedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return TrackedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hybridgnn {
namespace {

using ag::Var;

/// Checks analytic gradients of `loss_fn` against central finite differences
/// for every entry of every parameter. `loss_fn` must rebuild the graph from
/// the parameters' *current values* on each call.
void CheckGradients(const std::vector<Var>& params,
                    const std::function<Var()>& loss_fn, float tol = 2e-2f) {
  for (const Var& p : params) p->ZeroGrad();
  Var loss = loss_fn();
  ag::Backward(loss);
  const float eps = 1e-3f;
  for (const Var& p : params) {
    ASSERT_FALSE(p->grad.empty()) << "parameter received no gradient";
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float saved = p->value.data()[i];
      p->value.data()[i] = saved + eps;
      const float up = loss_fn()->value.At(0, 0);
      p->value.data()[i] = saved - eps;
      const float down = loss_fn()->value.At(0, 0);
      p->value.data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = p->grad.data()[i];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::abs(numeric)))
          << "entry " << i;
    }
  }
}

Var MakeParam(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  UniformInit(t, rng, -0.8f, 0.8f);
  return ag::Param(std::move(t));
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(AutogradTest, BackwardRequiresScalarRoot) {
  Var a = ag::Param(Tensor::Ones(1, 1));
  Var b = ag::Scale(a, 2.0f);
  ag::Backward(b);
  EXPECT_FLOAT_EQ(a->grad.At(0, 0), 2.0f);
}

TEST(AutogradTest, ConstantGetsNoGradient) {
  Var c = ag::Constant(Tensor::Ones(2, 2));
  Var p = ag::Param(Tensor::Ones(2, 2));
  Var loss = ag::SumAll(ag::Mul(c, p));
  ag::Backward(loss);
  EXPECT_TRUE(c->grad.empty());
  EXPECT_FALSE(p->grad.empty());
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Var p = ag::Param(Tensor::Ones(1, 1));
  for (int i = 0; i < 2; ++i) {
    Var loss = ag::Scale(p, 3.0f);
    ag::Backward(loss);
  }
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 6.0f);
  p->ZeroGrad();
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 0.0f);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // loss = sum(p * p_used_twice): d/dp = 2p handled via two paths.
  Var p = ag::Param(Tensor::Full(1, 1, 3.0f));
  Var loss = ag::SumAll(ag::Mul(p, p));
  ag::Backward(loss);
  EXPECT_FLOAT_EQ(p->grad.At(0, 0), 6.0f);
}

// A node owns its parents, so the graph survives the caller dropping every
// other handle before Backward.
TEST(AutogradTest, NodesKeepParentsAlive) {
  Var loss;
  Var param = ag::Param(Tensor::Full(2, 2, 0.5f));
  {
    Var tmp = ag::Scale(param, 3.0f);
    loss = ag::SumAll(tmp);
  }
  ag::Backward(loss);
  EXPECT_FLOAT_EQ(param->grad.At(0, 0), 3.0f);
}

TEST(AutogradTest, GradSinkScopeRedirectsLeafGradients) {
  Var param = ag::Param(Tensor::Full(2, 2, 1.0f));
  ag::GradSinkScope::Sink sink;
  {
    ag::GradSinkScope sink_scope(&sink);
    Var loss = ag::SumAll(ag::Scale(param, 4.0f));
    ag::Backward(loss);
  }
  EXPECT_TRUE(param->grad.empty()) << "sink should absorb the leaf gradient";
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_FLOAT_EQ(sink[param.get()].At(0, 0), 4.0f);
}

// Data-parallel pattern from MinibatchTrainer: workers backprop private
// graphs over shared leaves under per-worker sinks. Under TSan this is the
// race check for the visit marks; the reduced gradient must equal the
// serial accumulation bit for bit.
TEST(AutogradTest, ParallelWorkersMatchSerialReduction) {
  constexpr size_t kWorkers = 4;
  const std::vector<Var> params = {MakeParam(3, 4, 60), MakeParam(3, 4, 61)};
  auto worker_loss = [&](size_t w) {
    Var scaled = ag::Scale(params[0], 0.5f + static_cast<float>(w));
    return ag::SumAll(ag::RowwiseDot(scaled, params[1]));
  };

  // Serial reference: accumulate all workers' grads in worker order.
  for (size_t w = 0; w < kWorkers; ++w) ag::Backward(worker_loss(w));
  const Tensor serial = params[0]->grad;

  for (const Var& p : params) p->grad = Tensor();
  std::vector<ag::GradSinkScope::Sink> sinks(kWorkers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w]() {
      ag::GradSinkScope sink_scope(&sinks[w]);
      ag::Backward(worker_loss(w));
    });
  }
  for (auto& t : threads) t.join();
  for (size_t w = 0; w < kWorkers; ++w) {
    for (auto& [node, grad] : sinks[w]) node->AccumulateGrad(grad);
  }
  ExpectBitwiseEqual(params[0]->grad, serial);
}

TEST(AutogradGradCheck, MatMul) {
  Var a = MakeParam(3, 4, 1);
  Var b = MakeParam(4, 2, 2);
  CheckGradients({a, b},
                 [&] { return ag::SumAll(ag::MatMul(a, b)); });
}

TEST(AutogradGradCheck, AddSubMul) {
  Var a = MakeParam(2, 3, 3);
  Var b = MakeParam(2, 3, 4);
  CheckGradients({a, b}, [&] {
    return ag::SumAll(ag::Mul(ag::Add(a, b), ag::Sub(a, b)));
  });
}

TEST(AutogradGradCheck, AddRowBroadcast) {
  Var a = MakeParam(3, 2, 5);
  Var bias = MakeParam(1, 2, 6);
  CheckGradients({a, bias}, [&] {
    return ag::SumAll(ag::Sigmoid(ag::AddRowBroadcast(a, bias)));
  });
}

TEST(AutogradGradCheck, Activations) {
  Var a = MakeParam(2, 3, 7);
  CheckGradients({a}, [&] { return ag::SumAll(ag::Sigmoid(a)); });
  CheckGradients({a}, [&] { return ag::SumAll(ag::Tanh(a)); });
}

TEST(AutogradGradCheck, SoftmaxRows) {
  Var a = MakeParam(2, 4, 8);
  Var w = MakeParam(2, 4, 9);
  CheckGradients({a}, [&] {
    return ag::SumAll(ag::Mul(ag::SoftmaxRows(a), w));
  });
}

TEST(AutogradGradCheck, RowwiseDot) {
  Var a = MakeParam(3, 4, 10);
  Var b = MakeParam(3, 4, 11);
  CheckGradients({a, b}, [&] {
    return ag::SumAll(ag::Sigmoid(ag::RowwiseDot(a, b)));
  });
}

TEST(AutogradGradCheck, MeanAndSumRows) {
  Var a = MakeParam(3, 3, 12);
  CheckGradients({a}, [&] { return ag::SumAll(ag::MeanRows(a)); });
  CheckGradients({a}, [&] { return ag::MeanAll(ag::SumRows(a)); });
}

TEST(AutogradGradCheck, ConcatAndSlice) {
  Var a = MakeParam(2, 3, 13);
  Var b = MakeParam(1, 3, 14);
  CheckGradients({a, b}, [&] {
    Var cat = ag::ConcatRows({a, b});
    return ag::SumAll(ag::Sigmoid(ag::SliceRows(cat, 1, 2)));
  });
}

TEST(AutogradGradCheck, ConcatCols) {
  Var a = MakeParam(2, 2, 15);
  Var b = MakeParam(2, 3, 16);
  CheckGradients({a, b}, [&] {
    return ag::SumAll(ag::Tanh(ag::ConcatCols({a, b})));
  });
}

TEST(AutogradGradCheck, GatherRowsAccumulatesDuplicates) {
  Var table = MakeParam(4, 3, 17);
  CheckGradients({table}, [&] {
    return ag::SumAll(ag::Sigmoid(ag::GatherRows(table, {1, 1, 3})));
  });
}

TEST(AutogradGradCheck, BatchedMatMul) {
  // Three blocks of [2, 3] x [3, 4].
  Var a = MakeParam(6, 3, 40);
  Var b = MakeParam(9, 4, 41);
  Var w = MakeParam(6, 4, 42);
  CheckGradients({a, b}, [&] {
    return ag::SumAll(ag::Mul(ag::BatchedMatMul(a, b, 3), w));
  });
}

TEST(AutogradGradCheck, BatchedMatMulTransB) {
  // Two blocks of [3, 4] x [2, 4]^T.
  Var a = MakeParam(6, 4, 43);
  Var b = MakeParam(4, 4, 44);
  Var w = MakeParam(6, 2, 45);
  CheckGradients({a, b}, [&] {
    return ag::SumAll(ag::Mul(ag::BatchedMatMulTransB(a, b, 2), w));
  });
}

// Every block of the batched products is the dense op on that block alone,
// value and gradients (to float rounding: the dense ops sum in another
// order).
TEST(AutogradTest, BatchedMatMulsMatchPerBlockDenseOps) {
  constexpr size_t kBlocks = 5, kM = 3, kK = 4, kN = 2;
  Var a = MakeParam(kBlocks * kM, kK, 46);
  Var b = MakeParam(kBlocks * kK, kN, 47);
  Var bt = MakeParam(kBlocks * kN, kK, 48);
  Var wa = MakeParam(kBlocks * kM, kN, 49);
  auto grads = [](const std::vector<Var>& ps) {
    std::vector<Tensor> out;
    for (const Var& p : ps) {
      out.push_back(p->grad);
      p->ZeroGrad();
    }
    return out;
  };
  for (const Var& p : {a, b, bt}) p->ZeroGrad();
  Var batched = ag::Add(ag::BatchedMatMul(a, b, kBlocks),
                        ag::BatchedMatMulTransB(a, bt, kBlocks));
  ag::Backward(ag::SumAll(ag::Mul(batched, wa)));
  const std::vector<Tensor> batched_grads = grads({a, b, bt});
  for (size_t p = 0; p < kBlocks; ++p) {
    Var ap = ag::SliceRows(a, p * kM, kM);
    Var dense = ag::Add(ag::MatMul(ap, ag::SliceRows(b, p * kK, kK)),
                        ag::MatMul(ap, ag::Transpose(ag::SliceRows(
                                           bt, p * kN, kN))));
    for (size_t i = 0; i < kM; ++i) {
      for (size_t j = 0; j < kN; ++j) {
        EXPECT_NEAR(dense->value.At(i, j), batched->value.At(p * kM + i, j),
                    1e-5)
            << "block " << p;
      }
    }
    // Each block's gradient lands in its own rows only.
    ag::Backward(ag::SumAll(ag::Mul(dense, ag::SliceRows(wa, p * kM, kM))));
  }
  const std::vector<Tensor> dense_grads = grads({a, b, bt});
  for (size_t k = 0; k < dense_grads.size(); ++k) {
    ASSERT_TRUE(dense_grads[k].SameShape(batched_grads[k]));
    for (size_t i = 0; i < dense_grads[k].size(); ++i) {
      EXPECT_NEAR(dense_grads[k].data()[i], batched_grads[k].data()[i], 1e-5)
          << "param " << k << " entry " << i;
    }
  }
}

TEST(AutogradGradCheck, Transpose) {
  Var a = MakeParam(2, 3, 18);
  Var b = MakeParam(2, 3, 19);
  CheckGradients({a, b}, [&] {
    return ag::SumAll(ag::MatMul(ag::Transpose(a), b));
  });
}

// ---- Row-sparse gather backward ----
//
// GatherRows' backward scatters into the touched rows of the table's
// gradient accumulator. The reference below is the dense scatter it
// replaced: zero-fill a [rows, dim] scratch, add each gathered row's
// gradient into it in index order, then add the scratch to the gradient.

std::vector<int32_t> RandomIndices(size_t count, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> idx(count);
  for (int32_t& i : idx) i = static_cast<int32_t>(rng.UniformUint64(rows));
  // Force heavy duplication on a few hot rows too.
  for (size_t k = 0; k < count; k += 7) idx[k] = static_cast<int32_t>(k % 5);
  return idx;
}

Tensor DenseScatterReference(const Tensor& start, const Tensor& g,
                             const std::vector<int32_t>& idx) {
  Tensor dt(start.rows(), start.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    const float* gr = g.RowPtr(i);
    float* d = dt.RowPtr(static_cast<size_t>(idx[i]));
    for (size_t j = 0; j < dt.cols(); ++j) d[j] += gr[j];
  }
  Tensor out = start;
  out.AddInPlace(dt);
  return out;
}

TEST(GatherBackwardTest, ScatterMatchesDenseReferenceBitwise) {
  constexpr size_t kRows = 20000, kDim = 12, kCount = 3000;
  const std::vector<int32_t> idx = RandomIndices(kCount, kRows, 50);
  Tensor g(kCount, kDim);
  Rng rng(51);
  UniformInit(g, rng, -1.0f, 1.0f);
  Tensor start(kRows, kDim);
  UniformInit(start, rng, -1.0f, 1.0f);
  Tensor sparse = start;
  ScatterAddRows(g, idx, &sparse);
  ExpectBitwiseEqual(sparse, DenseScatterReference(start, g, idx));
}

TEST(GatherBackwardTest, BackwardMatchesDenseReferenceAndSkipsUntouchedRows) {
  constexpr size_t kRows = 5000, kDim = 8, kCount = 700;
  const std::vector<int32_t> idx = RandomIndices(kCount, kRows, 52);
  Var table = MakeParam(kRows, kDim, 53);
  Var w = MakeParam(kCount, kDim, 54);
  // A non-zero gradient already in place, as from an earlier op.
  Rng rng(55);
  Tensor start(kRows, kDim);
  UniformInit(start, rng, -1.0f, 1.0f);
  table->grad = start;
  ag::Backward(ag::SumAll(ag::Mul(ag::GatherRows(table, idx), w)));
  // d(sum(gather * w)) / d(gather) is w itself.
  ExpectBitwiseEqual(table->grad, DenseScatterReference(start, w->value, idx));
  std::vector<bool> touched(kRows, false);
  for (int32_t i : idx) touched[static_cast<size_t>(i)] = true;
  for (size_t r = 0; r < kRows; ++r) {
    if (touched[r]) continue;
    ASSERT_EQ(std::memcmp(table->grad.RowPtr(r), start.RowPtr(r),
                          kDim * sizeof(float)),
              0)
        << "untouched row " << r << " changed";
  }
}

// The backward must cost O(gathered rows), not O(table): no single
// allocation during it may be as large as a [rows, dim] scratch.
TEST(GatherBackwardTest, BackwardAllocatesNoTableSizedScratch) {
  constexpr size_t kRows = 100000, kDim = 8;
  Var table = MakeParam(kRows, kDim, 56);
  table->GradAccumulator();  // the gradient itself exists before the step
  const std::vector<int32_t> idx = RandomIndices(64, kRows, 57);
  Var rows = ag::GatherRows(table, idx);
  Var loss = ag::SumAll(ag::Mul(rows, rows));
  g_largest_alloc.store(0);
  g_track_allocs.store(true);
  ag::Backward(loss);
  g_track_allocs.store(false);
  const size_t largest = g_largest_alloc.load();
  EXPECT_GT(largest, 0u) << "the allocation hooks saw nothing";
  EXPECT_LT(largest, kRows * kDim * sizeof(float))
      << "one backward allocated a " << largest << "-byte block";
}

TEST(AutogradGradCheck, AttentionShapedComposite) {
  // Mimics the hierarchical attention block: softmax(QK^T/s)V.
  Var h = MakeParam(3, 4, 20);
  Var wq = MakeParam(4, 2, 21);
  Var wk = MakeParam(4, 2, 22);
  Var wv = MakeParam(4, 2, 23);
  CheckGradients({h, wq, wk, wv}, [&] {
    Var q = ag::MatMul(h, wq);
    Var k = ag::MatMul(h, wk);
    Var v = ag::MatMul(h, wv);
    Var attn = ag::SoftmaxRows(
        ag::Scale(ag::MatMul(q, ag::Transpose(k)), 0.7071f));
    return ag::MeanAll(ag::MatMul(attn, v));
  });
}

TEST(AutogradGradCheck, BceWithLogits) {
  Var logits = MakeParam(4, 1, 24);
  std::vector<float> targets = {1.0f, 0.0f, 1.0f, 0.0f};
  CheckGradients({logits},
                 [&] { return ag::BceWithLogits(logits, targets); });
}

TEST(AutogradTest, BceMatchesManualComputation) {
  Tensor t(2, 1);
  t.At(0, 0) = 2.0f;
  t.At(1, 0) = -1.0f;
  Var logits = ag::Param(std::move(t));
  Var loss = ag::BceWithLogits(logits, {1.0f, 0.0f});
  const float expected =
      0.5f * (std::log1p(std::exp(-2.0f)) + std::log1p(std::exp(-1.0f)));
  EXPECT_NEAR(loss->value.At(0, 0), expected, 1e-5);
}

}  // namespace
}  // namespace hybridgnn
