// Microbenchmark for the runtime-dispatched kernel layer (src/kernels):
// times Dot, Axpy, Scale, SgnsPairStep, and ScoreBlock on the scalar and
// (when the host supports it) AVX2 backends across the dims that matter for
// SGNS training and top-K serving. Reports per-kernel throughput and the
// avx2-over-scalar speedup; the acceptance bar is >= 2x for Dot and
// ScoreBlock at dim >= 128 on AVX2 hardware.
//
// Writes BENCH_micro_kernels.json (stage rows are "<kernel>_d<dim>_<backend>",
// with the dim recorded in the `threads` column since kernels are
// single-threaded) plus a result hash over the accumulated outputs so a
// baseline diff catches silent numeric divergence between backends.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "kernels/kernels.h"

namespace hybridgnn::bench {
namespace {

namespace k = ::hybridgnn::kernels;

constexpr size_t kDims[] = {8, 32, 64, 128, 256, 512};
constexpr size_t kScoreRows = 256;  // matches serve/topk.cc's block size
constexpr size_t kPairRows = 6;     // SGNS: 1 positive + 5 negatives

struct Workload {
  std::vector<float> a, b, c;      // dim-sized operand rows
  std::vector<float> table;        // kScoreRows x dim candidate block
  std::vector<float*> pair_rows;   // the first kPairRows table rows
  std::vector<uint32_t> ids;       // row ids 0..kScoreRows-1
  std::vector<double> scores;      // kScoreRows outputs
};

Workload MakeWorkload(size_t dim, Rng& rng) {
  Workload w;
  w.a.resize(dim);
  w.b.resize(dim);
  w.c.resize(dim);
  w.table.resize(kScoreRows * dim);
  w.scores.resize(kScoreRows);
  for (uint32_t i = 0; i < kScoreRows; ++i) w.ids.push_back(i);
  for (auto* v : {&w.a, &w.b, &w.c}) {
    for (auto& x : *v) x = rng.UniformFloat(-1.0f, 1.0f);
  }
  for (auto& x : w.table) x = rng.UniformFloat(-1.0f, 1.0f);
  for (size_t r = 0; r < kPairRows; ++r) {
    w.pair_rows.push_back(w.table.data() + r * dim);
  }
  return w;
}

/// Calibrated so each (kernel, dim, backend) cell runs ~10-40 ms.
size_t RepsFor(size_t dim) { return 40'000'000 / (dim + 8); }

struct CellResult {
  double ms;
  double flops_per_s;
  double sink;  // accumulated output, defeats dead-code elimination
};

template <typename Body>
CellResult TimeCell(size_t reps, size_t flops_per_rep, Body body) {
  double sink = 0.0;
  // Warmup resolves dispatch and faults pages in.
  for (size_t i = 0; i < 16; ++i) sink += body();
  Timer t;
  for (size_t i = 0; i < reps; ++i) sink += body();
  const double ms = t.ElapsedMillis();
  const double flops =
      static_cast<double>(reps) * static_cast<double>(flops_per_rep);
  return {ms, ms > 0 ? flops / (ms * 1e-3) : 0.0, sink};
}

uint64_t MixHash(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  h ^= bits;
  h *= 1099511628211ULL;
  return h;
}

void Run() {
  std::printf("=== kernel layer microbench (scalar vs avx2 dispatch) ===\n");
  std::printf("active backend: %s, avx2 available: %s\n\n",
              k::BackendName(k::ActiveBackend()),
              k::Avx2Available() ? "yes" : "no");

  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (k::Avx2Available()) backends.push_back(k::Backend::kAvx2);

  BenchReport report("micro_kernels");
  uint64_t hash = 1469598103934665603ULL;
  Rng rng(4242);

  struct Kernel {
    const char* name;
    size_t flops_factor;  // per element of dim
  };
  const Kernel kernels[] = {
      {"dot", 2}, {"axpy", 2}, {"scale", 1},
      // Per row a dot and two axpy-like updates, then the center's Axpy.
      {"sgns_pair", 6 * kPairRows + 2},
      {"score_block", 2 * kScoreRows},
  };

  std::printf("%-14s %6s %10s %14s %10s %14s %9s\n", "kernel", "dim",
              "backend", "ms", "ns/call", "gflops", "speedup");
  for (const Kernel& kern : kernels) {
    for (size_t dim : kDims) {
      Workload w = MakeWorkload(dim, rng);
      double scalar_ms = 0.0;
      for (k::Backend backend : backends) {
        k::ScopedBackend guard(backend);
        const std::string kname(kern.name);
        size_t reps = RepsFor(dim);
        if (kname == "score_block") reps /= kScoreRows;
        if (kname == "sgns_pair") reps /= kPairRows;
        if (reps == 0) reps = 1;
        CellResult cell{};
        if (kname == "dot") {
          cell = TimeCell(reps, 2 * dim, [&] {
            return static_cast<double>(k::Dot(w.a.data(), w.b.data(), dim));
          });
        } else if (kname == "axpy") {
          cell = TimeCell(reps, 2 * dim, [&] {
            k::Axpy(1e-7f, w.a.data(), w.c.data(), dim);
            return static_cast<double>(w.c[0]);
          });
        } else if (kname == "scale") {
          cell = TimeCell(reps, dim, [&] {
            // Alternating factors keep the data from draining to zero.
            k::Scale(0.5f, w.c.data(), dim);
            k::Scale(2.0f, w.c.data(), dim);
            return static_cast<double>(w.c[0]);
          });
        } else if (kname == "sgns_pair") {
          cell = TimeCell(reps, kern.flops_factor * dim, [&] {
            k::SgnsPairStep(w.a.data(), w.pair_rows.data(), kPairRows, dim,
                            1e-4f);
            return static_cast<double>(w.a[0]);
          });
        } else {
          cell = TimeCell(reps, 2 * dim * kScoreRows, [&] {
            k::ScoreBlock(w.a.data(), w.table.data(), w.ids.data(),
                          kScoreRows, dim, w.scores.data());
            return w.scores[0] + w.scores[kScoreRows - 1];
          });
        }
        hash = MixHash(hash, cell.sink);
        double speedup = 0.0;
        if (backend == k::Backend::kScalar) {
          scalar_ms = cell.ms;
        } else if (cell.ms > 0) {
          speedup = scalar_ms / cell.ms;
        }
        const std::string stage = kname + "_d" + std::to_string(dim) + "_" +
                                  k::BackendName(backend);
        report.AddStage(stage, dim, cell.ms, cell.flops_per_s);
        std::printf("%-14s %6zu %10s %11.1f ms %10.1f %14.2f %8.2fx\n",
                    kern.name, dim, k::BackendName(backend), cell.ms,
                    cell.ms * 1e6 / static_cast<double>(reps),
                    cell.flops_per_s / 1e9,
                    backend == k::Backend::kScalar ? 1.0 : speedup);
        if (k::Avx2Available() && backend == k::Backend::kAvx2 &&
            dim >= 128 && (kname == "dot" || kname == "score_block")) {
          // The acceptance bar for the SIMD layer; a regression here means
          // the dispatch or the vector body quietly degraded.
          HYBRIDGNN_CHECK(speedup >= 2.0)
              << kern.name << " dim " << dim << " avx2 speedup " << speedup
              << "x is below the 2x bar";
        }
      }
    }
    std::printf("\n");
  }

  report.set_result_hash(hash);
  report.Write();
}

}  // namespace
}  // namespace hybridgnn::bench

int main() {
  hybridgnn::bench::Run();
  return 0;
}
