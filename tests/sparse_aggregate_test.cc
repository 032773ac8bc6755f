// Differential suite for the batched CSR sparse-aggregation engine
// (graph/frontier.h, nn/sparse segment ops, kernels segment reductions).
//
// The redesign's contract is exact equivalence: the frontier path —
// GatherRowsSegmented -> SegmentMean -> aggregator fold — must be
// bit-identical to the pre-redesign per-node composition (one
// GatherRows+MeanRows per level, folded through the same aggregator), for
// values AND gradients, single-threaded and under the data-parallel
// GradSinkScope pattern. The kernel-level tests
// additionally pin the scalar/AVX2 backends bitwise against each other
// (segment reductions are add chains in fixed row order; see kernels.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/frontier.h"
#include "kernels/kernels.h"
#include "nn/aggregator.h"
#include "nn/sparse.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/autograd.h"
#include "tensor/init.h"

namespace hybridgnn {
namespace {

namespace k = ::hybridgnn::kernels;
using ag::Var;

constexpr size_t kNodes = 40;
constexpr size_t kDim = 19;  // odd, straddles the 8-wide vector boundary

std::vector<uint32_t> Bits(const Tensor& t) {
  std::vector<uint32_t> out(t.size());
  if (!t.empty()) std::memcpy(out.data(), t.data(), t.size() * sizeof(float));
  return out;
}

std::vector<float> RandomBlock(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(rows * dim);
  for (float& v : x) v = rng.UniformFloat(-2.0f, 2.0f);
  return x;
}

/// Frontier with awkward segment sizes: empty, singleton, large, and a
/// vector-width-straddling tail segment over `rows` total rows.
MinibatchFrontier AwkwardFrontier(size_t rows) {
  MinibatchFrontier f;
  f.Clear();
  const size_t cuts[] = {0, 1, 9, 10};  // sizes 0, 1, 8, then the rest
  size_t at = 0;
  for (size_t c : cuts) {
    while (at < c && at < rows) f.indices.push_back(static_cast<int32_t>(at++));
    f.CloseSegment();
  }
  while (at < rows) f.indices.push_back(static_cast<int32_t>(at++));
  f.CloseSegment();
  return f;
}

// ---------- kernel-level differentials (scalar vs AVX2, bitwise) ----------

class SegmentKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!k::Avx2Available()) {
      GTEST_SKIP() << "AVX2 kernels unavailable; differential comparison "
                      "needs both dispatch paths";
    }
  }
};

TEST_F(SegmentKernelTest, SegmentSumAndMeanBitwise) {
  for (size_t dim : {1u, 7u, 8u, 16u, 19u, 33u}) {
    const size_t rows = 23;
    const auto x = RandomBlock(rows, dim, 0x5E6 + dim);
    const MinibatchFrontier f = AwkwardFrontier(rows);
    const size_t segs = f.num_segments();
    std::vector<float> sum_s(segs * dim), sum_s2(segs * dim),
        sum_v(segs * dim), mean_s(segs * dim), mean_v(segs * dim);
    {
      k::ScopedBackend g(k::Backend::kScalar);
      k::SegmentSum(x.data(), dim, f.indptr.data(), segs, sum_s.data());
      k::SegmentSum(x.data(), dim, f.indptr.data(), segs, sum_s2.data());
      k::SegmentMean(x.data(), dim, f.indptr.data(), segs, mean_s.data());
    }
    {
      k::ScopedBackend g(k::Backend::kAvx2);
      k::SegmentSum(x.data(), dim, f.indptr.data(), segs, sum_v.data());
      k::SegmentMean(x.data(), dim, f.indptr.data(), segs, mean_v.data());
    }
    EXPECT_EQ(std::memcmp(sum_s.data(), sum_s2.data(),
                          sum_s.size() * sizeof(float)),
              0)
        << "scalar SegmentSum nondeterministic, dim=" << dim;
    EXPECT_EQ(std::memcmp(sum_s.data(), sum_v.data(),
                          sum_s.size() * sizeof(float)),
              0)
        << "SegmentSum scalar vs avx2, dim=" << dim;
    EXPECT_EQ(std::memcmp(mean_s.data(), mean_v.data(),
                          mean_s.size() * sizeof(float)),
              0)
        << "SegmentMean scalar vs avx2, dim=" << dim;
    // Reference: sequential add chain from zero in ascending row order,
    // then one multiply — exactly what both backends must implement.
    for (size_t s = 0; s < segs; ++s) {
      for (size_t j = 0; j < dim; ++j) {
        float acc = 0.0f;
        for (size_t i = f.indptr[s]; i < f.indptr[s + 1]; ++i) {
          acc += x[i * dim + j];
        }
        EXPECT_EQ(sum_s[s * dim + j], acc) << "s=" << s << " j=" << j;
      }
    }
  }
}

TEST_F(SegmentKernelTest, SegmentMaxBitwiseWithArgmax) {
  for (size_t dim : {1u, 8u, 19u, 32u}) {
    const size_t rows = 23;
    auto x = RandomBlock(rows, dim, 0xA7 + dim);
    // Plant an exact tie in the big segment: rows 3 and 7 identical. The
    // strict-> contract must keep the FIRST row on every backend.
    std::memcpy(&x[7 * dim], &x[3 * dim], dim * sizeof(float));
    const MinibatchFrontier f = AwkwardFrontier(rows);
    const size_t segs = f.num_segments();
    std::vector<float> max_s(segs * dim), max_v(segs * dim);
    std::vector<uint32_t> arg_s(segs * dim), arg_v(segs * dim);
    {
      k::ScopedBackend g(k::Backend::kScalar);
      k::SegmentMax(x.data(), dim, f.indptr.data(), segs, max_s.data(),
                    arg_s.data());
    }
    {
      k::ScopedBackend g(k::Backend::kAvx2);
      k::SegmentMax(x.data(), dim, f.indptr.data(), segs, max_v.data(),
                    arg_v.data());
    }
    EXPECT_EQ(std::memcmp(max_s.data(), max_v.data(),
                          max_s.size() * sizeof(float)),
              0)
        << "SegmentMax values scalar vs avx2, dim=" << dim;
    EXPECT_EQ(arg_s, arg_v) << "SegmentMax argmax scalar vs avx2, dim=" << dim;
    // Empty segment (segment 0): zero value, sentinel argmax.
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(max_s[j], 0.0f);
      EXPECT_EQ(arg_s[j], k::kNoSegmentRow);
    }
    // Tie in segment 2 (rows 1..9): row 7 never wins over row 3.
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_NE(arg_s[2 * dim + j], 7u) << "tie must keep the first row";
    }
    // Cross-check against a scalar reference.
    for (size_t s = 0; s < segs; ++s) {
      const size_t lo = f.indptr[s], hi = f.indptr[s + 1];
      if (lo == hi) continue;
      for (size_t j = 0; j < dim; ++j) {
        float m = x[lo * dim + j];
        uint32_t a = static_cast<uint32_t>(lo);
        for (size_t i = lo + 1; i < hi; ++i) {
          if (x[i * dim + j] > m) {
            m = x[i * dim + j];
            a = static_cast<uint32_t>(i);
          }
        }
        EXPECT_EQ(max_s[s * dim + j], m);
        EXPECT_EQ(arg_s[s * dim + j], a);
      }
    }
  }
}

TEST_F(SegmentKernelTest, CsrSpmmBitwise) {
  for (size_t dim : {1u, 8u, 19u, 33u}) {
    const size_t cols = 11, rows = 6;
    const auto x = RandomBlock(cols, dim, 0xC5 + dim);
    Rng rng(77);
    std::vector<size_t> indptr(rows + 1, 0);
    std::vector<uint32_t> idx;
    std::vector<float> vals;
    for (size_t r = 0; r < rows; ++r) {
      const size_t nnz = rng.UniformUint64(5);  // includes empty rows
      for (size_t e = 0; e < nnz; ++e) {
        idx.push_back(static_cast<uint32_t>(rng.UniformUint64(cols)));
        vals.push_back(rng.UniformFloat(-1.0f, 1.0f));
      }
      indptr[r + 1] = idx.size();
    }
    std::vector<float> ys(rows * dim, 0.0f), yv(rows * dim, 0.0f),
        ref(rows * dim, 0.0f);
    {
      k::ScopedBackend g(k::Backend::kScalar);
      k::CsrSpmm(indptr.data(), idx.data(), vals.data(), rows, x.data(), dim,
                 ys.data());
    }
    {
      k::ScopedBackend g(k::Backend::kAvx2);
      k::CsrSpmm(indptr.data(), idx.data(), vals.data(), rows, x.data(), dim,
                 yv.data());
    }
    // Hand reference: the documented accumulation order (edges ascending,
    // one mul + one add per element per edge).
    for (size_t r = 0; r < rows; ++r) {
      for (size_t e = indptr[r]; e < indptr[r + 1]; ++e) {
        for (size_t j = 0; j < dim; ++j) {
          ref[r * dim + j] += vals[e] * x[idx[e] * dim + j];
        }
      }
    }
    EXPECT_EQ(std::memcmp(ys.data(), yv.data(), ys.size() * sizeof(float)), 0)
        << "CsrSpmm scalar vs avx2, dim=" << dim;
    EXPECT_EQ(std::memcmp(ys.data(), ref.data(), ys.size() * sizeof(float)),
              0)
        << "CsrSpmm vs hand loop, dim=" << dim;
  }
}

// ---------- frontier path vs pre-redesign per-node reference ----------

/// The sampled levels used by the differential cases: level 0 is the center,
/// deeper levels have repeats (exercising the duplicate-row grad chains) and
/// varied sizes.
std::vector<std::vector<NodeId>> TestLevels(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<NodeId>> levels(3);
  levels[0] = {static_cast<NodeId>(rng.UniformUint64(kNodes))};
  for (size_t l = 1; l < levels.size(); ++l) {
    const size_t n = 2 + l * 3;
    for (size_t i = 0; i < n; ++i) {
      levels[l].push_back(static_cast<NodeId>(rng.UniformUint64(kNodes)));
    }
  }
  return levels;
}

/// Pre-redesign composition: one dense GatherRows + MeanRows per level
/// (deepest first), folded through the aggregator. This is byte-for-byte the
/// graph the old per-node AggregateLevels built.
Var ReferencePath(const Var& table, const MeanAggregator& agg,
                  const std::vector<std::vector<NodeId>>& levels) {
  std::vector<Var> means;
  for (size_t l = levels.size(); l-- > 0;) {
    std::vector<int32_t> ids(levels[l].begin(), levels[l].end());
    means.push_back(ag::MeanRows(
        ag::GatherRows(table, std::span<const int32_t>(ids))));
  }
  Var rep = means[0];
  for (size_t i = 1; i < means.size(); ++i) {
    rep = agg.Forward(MinibatchFrontier::IdentityRow(), means[i], rep);
  }
  return rep;
}

/// The redesigned path as core/hybrid_gnn.cc and graphsage.cc run it.
Var FrontierPath(const Var& table, const MeanAggregator& agg,
                 const std::vector<std::vector<NodeId>>& levels) {
  MinibatchFrontier f;
  BuildLevelFrontier(levels, &f);
  Var block = GatherRowsSegmented(table, f);
  Var means = SegmentMean(block, f);
  const size_t n = f.num_segments();
  Var rep = n == 1 ? means : ag::SliceRows(means, 0, 1);
  for (size_t i = 1; i < n; ++i) {
    rep = agg.Forward(MinibatchFrontier::IdentityRow(),
                      ag::SliceRows(means, i, 1), rep);
  }
  return rep;
}

struct CaseResult {
  std::vector<float> loss;
  std::vector<std::vector<float>> grads;  // table grad + aggregator grads
};

std::vector<float> Floats(const Tensor& t) {
  std::vector<float> out(t.size());
  if (!t.empty()) std::memcpy(out.data(), t.data(), t.size() * sizeof(float));
  return out;
}

CaseResult RunCase(bool use_frontier, uint64_t seed) {
  Rng rng(seed);
  Tensor init(kNodes, kDim);
  UniformInit(init, rng, -0.8f, 0.8f);
  Var table = ag::Param(std::move(init));
  MeanAggregator agg(kDim, rng);
  const auto levels = TestLevels(seed ^ 0xBEEF);
  Var rep = use_frontier ? FrontierPath(table, agg, levels)
                         : ReferencePath(table, agg, levels);
  Var loss = ag::SumAll(ag::RowwiseDot(rep, rep));
  ag::Backward(loss);
  CaseResult r;
  r.loss = Floats(loss->value);
  r.grads.push_back(Floats(table->grad));
  for (const Var& p : agg.parameters()) r.grads.push_back(Floats(p->grad));
  return r;
}

/// Exact float equality elementwise (== treats +0 and -0 as equal, which is
/// the documented slack: the fused scatter may differ from the per-level
/// scatters only in signs of zero).
void ExpectExactlyEqual(const CaseResult& a, const CaseResult& b,
                        const char* what) {
  ASSERT_EQ(a.loss.size(), b.loss.size()) << what;
  for (size_t i = 0; i < a.loss.size(); ++i) {
    EXPECT_EQ(a.loss[i], b.loss[i]) << what << " loss[" << i << "]";
  }
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t p = 0; p < a.grads.size(); ++p) {
    ASSERT_EQ(a.grads[p].size(), b.grads[p].size()) << what << " param " << p;
    for (size_t i = 0; i < a.grads[p].size(); ++i) {
      EXPECT_EQ(a.grads[p][i], b.grads[p][i])
          << what << " param " << p << " elem " << i;
    }
  }
}

TEST(SparseAggregateTest, FrontierMatchesPerNodeReferenceHeap) {
  for (uint64_t seed : {11ull, 222ull, 3333ull}) {
    CaseResult ref = RunCase(/*use_frontier=*/false, seed);
    CaseResult fro = RunCase(/*use_frontier=*/true, seed);
    ExpectExactlyEqual(ref, fro, "heap");
  }
}

// The segment ops themselves (values and backward scatter) are bitwise
// backend-invariant — a stronger contract than Dot/MatMul, which are only
// ULP-close, so this test deliberately avoids the aggregator's dense layers.
TEST(SparseAggregateTest, BackendsAgreeOnSegmentOps) {
  if (!k::Avx2Available()) {
    GTEST_SKIP() << "AVX2 unavailable";
  }
  using ReduceFn = Var (*)(const Var&, const MinibatchFrontier&);
  for (ReduceFn reduce : {ReduceFn(&SegmentSum), ReduceFn(&SegmentMean),
                          ReduceFn(&SegmentMax)}) {
    std::vector<uint32_t> out_bits[2], grad_bits[2];
    for (int b = 0; b < 2; ++b) {
      k::ScopedBackend g(b == 0 ? k::Backend::kScalar : k::Backend::kAvx2);
      Rng rng(42);
      Tensor init(kNodes, kDim);
      UniformInit(init, rng, -0.8f, 0.8f);
      Var table = ag::Param(std::move(init));
      const auto levels = TestLevels(7);
      MinibatchFrontier f;
      BuildLevelFrontier(levels, &f);
      Var out = reduce(GatherRowsSegmented(table, f), f);
      ag::Backward(ag::SumAll(out));
      out_bits[b] = Bits(out->value);
      grad_bits[b] = Bits(table->grad);
    }
    EXPECT_EQ(out_bits[0], out_bits[1]) << "values scalar vs avx2";
    EXPECT_EQ(grad_bits[0], grad_bits[1]) << "grads scalar vs avx2";
  }
}

// Data-parallel pattern from HybridGnn::Fit: 4 workers backprop private
// frontier graphs over shared leaves under per-worker grad
// sinks, reduced in worker order. The reference runs the SAME sink-and-
// reduce protocol serially with the per-node composition — within each
// worker the fused scatter must reproduce the per-level chains, and the
// reduction order is fixed, so the reduced gradients agree exactly.
TEST(SparseAggregateTest, FourWorkersMatchSerialReference) {
  constexpr size_t kWorkers = 4;
  Rng rng(0xF00D);
  Tensor init(kNodes, kDim);
  UniformInit(init, rng, -0.8f, 0.8f);
  Var table = ag::Param(std::move(init));
  MeanAggregator agg(kDim, rng);
  std::vector<std::vector<std::vector<NodeId>>> worker_levels;
  for (size_t w = 0; w < kWorkers; ++w) {
    worker_levels.push_back(TestLevels(0xAB + w));
  }
  auto reset_grads = [&]() {
    table->grad = Tensor();
    for (const Var& p : agg.parameters()) p->grad = Tensor();
  };

  // Serial reference: per-node composition under the same sink protocol.
  std::vector<ag::GradSinkScope::Sink> ref_sinks(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) {
    ag::GradSinkScope sink_scope(&ref_sinks[w]);
    Var rep = ReferencePath(table, agg, worker_levels[w]);
    ag::Backward(ag::SumAll(ag::RowwiseDot(rep, rep)));
  }
  reset_grads();
  for (size_t w = 0; w < kWorkers; ++w) {
    for (auto& [node, grad] : ref_sinks[w]) node->AccumulateGrad(grad);
  }
  const std::vector<float> serial = Floats(table->grad);

  reset_grads();
  std::vector<ag::GradSinkScope::Sink> sinks(kWorkers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w]() {
      ag::GradSinkScope sink_scope(&sinks[w]);
      Var rep = FrontierPath(table, agg, worker_levels[w]);
      ag::Backward(ag::SumAll(ag::RowwiseDot(rep, rep)));
    });
  }
  for (auto& t : threads) t.join();
  for (size_t w = 0; w < kWorkers; ++w) {
    for (auto& [node, grad] : sinks[w]) node->AccumulateGrad(grad);
  }
  const std::vector<float> parallel = Floats(table->grad);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "table grad elem " << i;
  }
}

// ---------- edge cases ----------

TEST(SparseAggregateTest, EmptyFrontierSegmentReducesToZero) {
  MinibatchFrontier f;
  f.Clear();
  f.CloseSegment();  // one segment, zero rows
  Var table = ag::Param(Tensor::Full(4, kDim, 1.5f));
  Var block = GatherRowsSegmented(table, f);
  EXPECT_EQ(block->value.rows(), 0u);
  for (const auto& reduce :
       {&SegmentSum, &SegmentMean, &SegmentMax}) {
    Var out = (*reduce)(block, f);
    ASSERT_EQ(out->value.rows(), 1u);
    for (size_t j = 0; j < kDim; ++j) EXPECT_EQ(out->value.At(0, j), 0.0f);
    ag::Backward(ag::SumAll(out));
    // Nothing flows to the table: the [0, dim] intermediate grad is empty,
    // so Backward prunes the scatter. Empty or all-zero are both correct.
    for (size_t i = 0; i < table->grad.size(); ++i) {
      EXPECT_EQ(table->grad.data()[i], 0.0f);
    }
    table->ZeroGrad();
  }
}

TEST(SparseAggregateTest, SingleNeighborSegmentIsExactPassThrough) {
  Rng rng(99);
  Tensor init(6, kDim);
  UniformInit(init, rng, -2.0f, 2.0f);
  Var table = ag::Param(std::move(init));
  MinibatchFrontier f;
  f.Clear();
  f.indices = {3};
  f.CloseSegment();
  Var block = GatherRowsSegmented(table, f);
  Var mean = SegmentMean(block, f);
  // A singleton mean multiplies by 1.0f — exact, bitwise the gathered row.
  for (size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(mean->value.At(0, j), table->value.At(3, j));
  }
  ag::Backward(ag::SumAll(mean));
  for (size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(table->grad.At(3, j), 1.0f);
  }
  EXPECT_EQ(table->grad.At(0, 0), 0.0f);
}

TEST(SparseAggregateTest, BuildLevelFrontierOrdersDeepestFirst) {
  std::vector<std::vector<NodeId>> levels = {{5}, {1, 2}, {3, 4, 6}};
  MinibatchFrontier f;
  BuildLevelFrontier(levels, &f);
  EXPECT_EQ(f.indptr, (std::vector<size_t>{0, 3, 5, 6}));
  EXPECT_EQ(f.indices, (std::vector<int32_t>{3, 4, 6, 1, 2, 5}));
  // Trailing empty levels are dropped, not emitted as empty segments.
  levels.push_back({});
  BuildLevelFrontier(levels, &f);
  EXPECT_EQ(f.num_segments(), 3u);
  EXPECT_FALSE(f.AllSingleton());
  BuildLevelFrontier({{7}}, &f);
  EXPECT_TRUE(f.AllSingleton());
}

}  // namespace
}  // namespace hybridgnn
