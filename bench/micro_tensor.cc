// Micro-benchmarks of the tensor/autograd substrate: gemm, softmax,
// attention forward+backward, Adam steps.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/attention.h"
#include "tensor/autograd.h"
#include "tensor/init.h"
#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {
namespace {

Tensor RandomTensor(size_t r, size_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t(r, c);
  UniformInit(t, rng, -1, 1);
  return t;
}

void BM_MatMul(benchmark::State& state) {
  const size_t n = state.range(0);
  Tensor a = RandomTensor(n, n, 1);
  Tensor b = RandomTensor(n, n, 2);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_SoftmaxRows(benchmark::State& state) {
  Tensor a = RandomTensor(256, 256, 3);
  for (auto _ : state) {
    Tensor s = SoftmaxRows(a);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_SoftmaxRows);

void BM_AttentionForwardBackward(benchmark::State& state) {
  Rng rng(4);
  SelfAttention attn(16, 16, rng);
  Tensor h = RandomTensor(8, 16, 5);
  for (auto _ : state) {
    ag::Var out = attn.Forward(ag::Constant(h));
    ag::Var loss = ag::MeanAll(out);
    ag::Backward(loss);
    for (const auto& p : attn.parameters()) p->ZeroGrad();
    benchmark::DoNotOptimize(loss->value.At(0, 0));
  }
}
BENCHMARK(BM_AttentionForwardBackward);

void BM_AdamStep(benchmark::State& state) {
  ag::Var p = ag::Param(RandomTensor(1000, 128, 8));
  Adam opt(1e-3f);
  opt.AddParameter(p);
  p->AccumulateGrad(RandomTensor(1000, 128, 9));
  for (auto _ : state) {
    opt.Step();
  }
  state.SetItemsProcessed(state.iterations() * p->value.size());
}
BENCHMARK(BM_AdamStep);

void BM_GatherScatter(benchmark::State& state) {
  ag::Var table = ag::Param(RandomTensor(10000, 64, 10));
  std::vector<int32_t> idx;
  Rng rng(11);
  for (int i = 0; i < 512; ++i) {
    idx.push_back(static_cast<int32_t>(rng.UniformUint64(10000)));
  }
  for (auto _ : state) {
    ag::Var rows = ag::GatherRows(table, idx);
    ag::Var loss = ag::MeanAll(rows);
    ag::Backward(loss);
    table->ZeroGrad();
    benchmark::DoNotOptimize(loss->value.At(0, 0));
  }
}
BENCHMARK(BM_GatherScatter);

}  // namespace
}  // namespace hybridgnn

#define HYBRIDGNN_BENCH_NAME "micro_tensor"
#include "gbench_json_main.h"
