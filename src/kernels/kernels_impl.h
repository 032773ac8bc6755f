#ifndef HYBRIDGNN_KERNELS_KERNELS_IMPL_H_
#define HYBRIDGNN_KERNELS_KERNELS_IMPL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

// Internal dispatch table shared by kernels.cc and the per-backend
// translation units. Not part of the public API; include kernels/kernels.h
// instead.
namespace hybridgnn::kernels::internal {

struct KernelOps {
  float (*dot)(const float*, const float*, size_t);
  void (*axpy)(float, const float*, float*, size_t);
  void (*scale)(float, float*, size_t);
  void (*sgns_pair_step)(float*, float* const*, size_t, size_t, float);
  void (*score_block)(const float*, const float*, const uint32_t*, size_t,
                      size_t, double*);
  void (*score_block_i8)(const float*, const uint8_t*, const float*,
                         const float*, double, const uint32_t*, size_t,
                         size_t, double*);
  void (*segment_sum)(const float*, size_t, const size_t*, size_t, float*);
  void (*segment_mean)(const float*, size_t, const size_t*, size_t, float*);
  void (*segment_max)(const float*, size_t, const size_t*, size_t, float*,
                      uint32_t*);
  void (*csr_spmm)(const size_t*, const uint32_t*, const float*, size_t,
                   const float*, size_t, float*);
};

/// A length-n buffer for one kernel call: on the stack up to 1024
/// elements (every embedding width the library uses), on the heap beyond.
template <typename T>
class CallScratch {
 public:
  explicit CallScratch(size_t n)
      : heap_(n > kStack ? n : 0), data_(n > kStack ? heap_.data() : stack_) {}
  CallScratch(const CallScratch&) = delete;
  CallScratch& operator=(const CallScratch&) = delete;

  T* data() { return data_; }

 private:
  static constexpr size_t kStack = 1024;
  T stack_[kStack];
  std::vector<T> heap_;
  T* data_;
};

/// The scalar reference implementation. Always present.
const KernelOps& ScalarOps();

/// The AVX2+FMA implementation, or nullptr when it was not compiled in
/// (non-x86 target / compiler without -mavx2) or the CPU lacks AVX2/FMA.
/// Defined in kernels_avx2.cc when built, stubbed in kernels.cc otherwise.
const KernelOps* Avx2Ops();

}  // namespace hybridgnn::kernels::internal

#endif  // HYBRIDGNN_KERNELS_KERNELS_IMPL_H_
