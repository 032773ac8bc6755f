// Micro benchmark for the autograd hot loop: a HybridGNN-shaped minibatch
// (embedding gathers -> aggregation -> attention -> BCE head -> backward)
// run in heap mode (tensor pool off, no tape) against arena mode (pool on,
// TapeScope per step). Reports ns/step and operator-new calls per step, and
// writes BENCH_micro_autograd.json.
//
//   micro_autograd [--steps N] [--gate]
//
// --gate exits non-zero unless steady-state arena allocations/step are at
// most 1% of the heap baseline (the PR's allocation-free-steps contract);
// ci_check.sh runs this after the sanitizer sweeps.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "nn/aggregator.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "tensor/autograd.h"
#include "tensor/pool.h"

// ----- Allocation counting -----
//
// Global operator new/delete overrides: every heap allocation in the
// process, tensor buffers included (the pool allocates through aligned
// operator new precisely so it is visible here). Counters are relaxed
// atomics; the bench is effectively single-threaded.

namespace {
std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void CountAlloc(size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(size_t size) {
  CountAlloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  CountAlloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(size_t size, std::align_val_t align) {
  CountAlloc(size);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align),
                                   (size + static_cast<size_t>(align) - 1) &
                                       ~(static_cast<size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size, std::align_val_t align) {
  return operator new(size, align);
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

constexpr size_t kNodes = 512;
constexpr size_t kDim = 32;
constexpr size_t kBatch = 24;
constexpr size_t kFanout = 8;

/// The model pieces shared by both modes. Parameters are heap-resident
/// (ag::Param), exactly as in HybridGnn::Fit.
struct Model {
  EmbeddingTable table;
  MeanAggregator agg;
  SelfAttention attn;
  Model(Rng& rng)
      : table(kNodes, kDim, rng),
        agg(kDim, rng),
        attn(kDim, kDim, rng, /*identity_values=*/true) {}
};

/// One minibatch step: per "edge", gather a center row and a sampled
/// neighborhood, aggregate, stack, attend, score with a rowwise dot, and
/// backprop a BCE loss. Mirrors the per-batch graph shape of the trainer.
/// Returns the loss bits so modes can be cross-checked exactly.
ag::Var BuildStep(const Model& m, uint64_t step_seed) {
  Rng rng(step_seed);
  // Reused scratch so the arena mode's steady state is genuinely
  // allocation-free (the Vars are cleared before the caller's TapeScope
  // rewinds).
  static thread_local std::vector<ag::Var> reps;
  static thread_local std::vector<float> labels;
  static thread_local std::vector<int32_t> nbrs;
  for (size_t b = 0; b < kBatch; ++b) {
    const int32_t center[1] = {
        static_cast<int32_t>(rng.UniformUint64(kNodes))};
    nbrs.clear();
    for (size_t f = 0; f < kFanout; ++f) {
      nbrs.push_back(static_cast<int32_t>(rng.UniformUint64(kNodes)));
    }
    ag::Var self =
        ag::GatherRows(m.table.table(), std::span<const int32_t>(center, 1));
    ag::Var neigh = ag::MeanRows(
        ag::GatherRows(m.table.table(), std::span<const int32_t>(nbrs)));
    reps.push_back(
        m.agg.Forward(MinibatchFrontier::IdentityRow(), self, neigh));
    labels.push_back(static_cast<float>(b % 2));
  }
  ag::Var stack = ag::ConcatRows(reps);       // [kBatch, kDim]
  ag::Var mixed = m.attn.Forward(stack);      // [kBatch, kDim]
  ag::Var logits = ag::RowwiseDot(stack, mixed);
  ag::Var loss = ag::BceWithLogits(logits, labels);
  reps.clear();
  labels.clear();
  return loss;
}

uint32_t Step(const Model& m, uint64_t step_seed) {
  ag::Var loss = BuildStep(m, step_seed);
  ag::Backward(loss);
  uint32_t bits;
  std::memcpy(&bits, &loss->value.At(0, 0), sizeof(bits));
  return bits;
}

void ZeroGrads(const Model& m) {
  for (const auto& p : m.table.parameters()) p->ZeroGrad();
  for (const auto& p : m.agg.parameters()) p->ZeroGrad();
  for (const auto& p : m.attn.parameters()) p->ZeroGrad();
}

struct ModeResult {
  double ns_per_step = 0.0;
  double allocs_per_step = 0.0;
  double alloc_bytes_per_step = 0.0;
  std::vector<uint32_t> loss_bits;
};

ModeResult RunMode(bool arena, size_t steps) {
  pool::PoolScope pool_scope(arena);
  Rng model_rng(0xC0DE);
  Model model(model_rng);
  ModeResult r;
  r.loss_bits.reserve(steps);
  // Warmup: fill the pool free lists and grow the tape arena to its high
  //-water mark so the timed region measures the steady state of both modes.
  for (size_t s = 0; s < 10; ++s) {
    if (arena) {
      ag::TapeScope tape;
      Step(model, s);
    } else {
      Step(model, s);
    }
    ZeroGrads(model);
  }
  const uint64_t allocs_before = g_alloc_calls.load();
  const uint64_t bytes_before = g_alloc_bytes.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t s = 0; s < steps; ++s) {
    if (arena) {
      ag::TapeScope tape;
      r.loss_bits.push_back(Step(model, 1000 + s));
    } else {
      r.loss_bits.push_back(Step(model, 1000 + s));
    }
    ZeroGrads(model);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double inv_steps = 1.0 / static_cast<double>(steps);
  r.ns_per_step =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() *
      inv_steps;
  r.allocs_per_step =
      static_cast<double>(g_alloc_calls.load() - allocs_before) * inv_steps;
  r.alloc_bytes_per_step =
      static_cast<double>(g_alloc_bytes.load() - bytes_before) * inv_steps;
  return r;
}

int Main(int argc, char** argv) {
  size_t steps = 300;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--steps" && i + 1 < argc) {
      steps = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--gate") {
      gate = true;
    } else {
      std::fprintf(stderr, "usage: %s [--steps N] [--gate]\n", argv[0]);
      return 2;
    }
  }

  ModeResult heap = RunMode(/*arena=*/false, steps);
  ModeResult arena = RunMode(/*arena=*/true, steps);

  // The two modes must be numerically indistinguishable: same model seed,
  // same per-step streams, bit-identical losses.
  if (heap.loss_bits != arena.loss_bits) {
    std::fprintf(stderr,
                 "FATAL: arena mode diverged from heap mode (loss bits)\n");
    return 1;
  }

  const double alloc_ratio =
      heap.allocs_per_step > 0.0 ? arena.allocs_per_step / heap.allocs_per_step
                                 : 0.0;
  const double speedup =
      arena.ns_per_step > 0.0 ? heap.ns_per_step / arena.ns_per_step : 0.0;
  std::printf("micro_autograd: %zu steps, batch %zu, fanout %zu, dim %zu\n",
              steps, kBatch, kFanout, kDim);
  std::printf("  heap : %10.0f ns/step  %8.1f allocs/step  %10.0f B/step\n",
              heap.ns_per_step, heap.allocs_per_step,
              heap.alloc_bytes_per_step);
  std::printf("  arena: %10.0f ns/step  %8.1f allocs/step  %10.0f B/step\n",
              arena.ns_per_step, arena.allocs_per_step,
              arena.alloc_bytes_per_step);
  std::printf("  alloc ratio %.4f (gate <= 0.01), speedup %.2fx\n",
              alloc_ratio, speedup);

  bench::BenchReport report("micro_autograd");
  report.AddStage("heap_ns_per_step", 1, heap.ns_per_step * 1e-6, 0.0);
  report.AddStage("arena_ns_per_step", 1, arena.ns_per_step * 1e-6, 0.0);
  report.AddStage("heap_allocs_per_step", 1, 0.0, heap.allocs_per_step);
  report.AddStage("arena_allocs_per_step", 1, 0.0, arena.allocs_per_step);
  uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (uint32_t bits : arena.loss_bits) {
    hash = (hash ^ bits) * 1099511628211ull;
  }
  report.set_result_hash(hash);
  report.Write();

  if (gate && alloc_ratio > 0.01) {
    std::fprintf(stderr,
                 "GATE FAILED: arena allocations/step is %.2f%% of the heap "
                 "baseline (limit 1%%)\n",
                 100.0 * alloc_ratio);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hybridgnn

int main(int argc, char** argv) { return hybridgnn::Main(argc, argv); }
