#include "kernels/kernels.h"

#include <atomic>

#include "common/env.h"
#include "common/logging.h"
#include "kernels/kernels_impl.h"

namespace hybridgnn::kernels {

namespace {

using internal::Avx2Ops;
using internal::KernelOps;
using internal::ScalarOps;

struct Selected {
  const KernelOps* ops;
  Backend backend;
};

Selected Select() {
  const std::string want = GetEnvString("HYBRIDGNN_KERNELS", "");
  if (want == "scalar") return {&ScalarOps(), Backend::kScalar};
  if (want == "avx2") {
    if (const KernelOps* ops = Avx2Ops()) return {ops, Backend::kAvx2};
    HYBRIDGNN_LOG(Warning)
        << "HYBRIDGNN_KERNELS=avx2 requested but this host cannot run the "
           "AVX2 kernels; falling back to scalar";
    return {&ScalarOps(), Backend::kScalar};
  }
  if (!want.empty()) {
    HYBRIDGNN_LOG(Warning) << "unknown HYBRIDGNN_KERNELS value '" << want
                           << "' (expected scalar|avx2); auto-detecting";
  }
  if (const KernelOps* ops = Avx2Ops()) return {ops, Backend::kAvx2};
  return {&ScalarOps(), Backend::kScalar};
}

/// One-time env/CPUID resolution on first kernel call. The ops pointer and
/// backend tag are stored separately but always updated together; relaxed
/// ordering is fine because both targets are immutable statics.
std::atomic<const KernelOps*> g_ops{nullptr};
std::atomic<int> g_backend{static_cast<int>(Backend::kScalar)};

const KernelOps& Active() {
  const KernelOps* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    const Selected s = Select();
    // One line naming the resolved backend and every entry point it covers,
    // so a training log records which dispatch the run actually used.
    HYBRIDGNN_LOG(Info)
        << "kernels: dispatching to '" << BackendName(s.backend)
        << "' backend (dot, axpy, scale, sgns_pair_step, score_block, "
           "score_block_i8, segment_sum, segment_mean, segment_max, "
           "csr_spmm)";
    g_backend.store(static_cast<int>(s.backend), std::memory_order_relaxed);
    g_ops.store(s.ops, std::memory_order_release);
    ops = s.ops;
  }
  return *ops;
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2Available() { return Avx2Ops() != nullptr; }

Backend ActiveBackend() {
  Active();  // ensure resolved
  return static_cast<Backend>(g_backend.load(std::memory_order_relaxed));
}

Backend SetBackend(Backend b) {
  const Backend previous = ActiveBackend();
  const KernelOps* ops = nullptr;
  if (b == Backend::kScalar) {
    ops = &ScalarOps();
  } else {
    ops = Avx2Ops();
    HYBRIDGNN_CHECK(ops != nullptr)
        << "SetBackend(kAvx2): AVX2 kernels unavailable on this host";
  }
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  g_ops.store(ops, std::memory_order_release);
  return previous;
}

float Dot(const float* a, const float* b, size_t n) {
  return Active().dot(a, b, n);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  Active().axpy(alpha, x, y, n);
}

void Scale(float alpha, float* x, size_t n) { Active().scale(alpha, x, n); }

void SgnsPairStep(float* e, float* const* rows, size_t num_rows, size_t n,
                  float lr) {
  Active().sgns_pair_step(e, rows, num_rows, n, lr);
}

void ScoreBlock(const float* query, const float* table, const uint32_t* rows,
                size_t num_rows, size_t n, double* out) {
  Active().score_block(query, table, rows, num_rows, n, out);
}

void ScoreBlockI8(const float* query, const uint8_t* table,
                  const float* scales, const float* zeros, double query_sum,
                  const uint32_t* rows, size_t num_rows, size_t n,
                  double* out) {
  Active().score_block_i8(query, table, scales, zeros, query_sum, rows,
                          num_rows, n, out);
}

void SegmentSum(const float* x, size_t dim, const size_t* indptr,
                size_t num_segments, float* out) {
  Active().segment_sum(x, dim, indptr, num_segments, out);
}

void SegmentMean(const float* x, size_t dim, const size_t* indptr,
                 size_t num_segments, float* out) {
  Active().segment_mean(x, dim, indptr, num_segments, out);
}

void SegmentMax(const float* x, size_t dim, const size_t* indptr,
                size_t num_segments, float* out, uint32_t* argmax) {
  Active().segment_max(x, dim, indptr, num_segments, out, argmax);
}

void CsrSpmm(const size_t* indptr, const uint32_t* indices,
             const float* values, size_t rows, const float* x, size_t dim,
             float* y) {
  Active().csr_spmm(indptr, indices, values, rows, x, dim, y);
}

#if !defined(HYBRIDGNN_KERNELS_HAVE_AVX2)
namespace internal {
// kernels_avx2.cc was not built (non-x86 target or a compiler without
// -mavx2/-mfma): graceful scalar fallback instead of a build failure.
const KernelOps* Avx2Ops() { return nullptr; }
}  // namespace internal
#endif

}  // namespace hybridgnn::kernels
