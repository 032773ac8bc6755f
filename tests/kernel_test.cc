// Differential test suite for the runtime-dispatched kernel layer
// (src/kernels): every kernel runs on both dispatch paths — scalar and,
// when the host supports it, AVX2 — across awkward shapes (dim 1, primes,
// the 63/64/65 vector-width boundary, unaligned starts, ±denormals, signed
// zeros) and the results must agree bitwise or within the documented ULP /
// reduction bounds (see kernels/kernels.h and DESIGN.md §11).
//
// Tolerance policy enforced here:
//   Scale           bit-identical across backends
//   Axpy            <= 1 ULP per element (compiler-contraction ambiguity)
//   Dot             |scalar - avx2| <= 2 * n * eps_f * sum|a_i * b_i|,
//                   and both within that bound of a double reference
//   SgnsUpdateStep  g to 64 ULP; row updates elementwise via the Dot-style
//                   bound scaled by |g| resp. the input magnitudes
//   ScoreBlock      double accumulation on both paths: 1e-12-relative;
//                   on each backend a multi-row call is bitwise equal to
//                   one-row calls (ScoreBlockI8 too)
// Every kernel must also be deterministic: two calls on the same backend
// and inputs are bit-identical.
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/kernels.h"

namespace hybridgnn {
namespace {

namespace k = ::hybridgnn::kernels;

const size_t kDims[] = {1,  2,  3,  7,  8,  9,   15,  16,  17,  31, 32,
                        33, 63, 64, 65, 96, 127, 128, 129, 255, 256, 1000};

/// ULP distance between two floats (monotone integer mapping; +0 and -0 are
/// 1 apart, which is stricter than IEEE equality and fine for our kernels).
int64_t UlpDiff(float a, float b) {
  int32_t ia, ib;
  std::memcpy(&ia, &a, 4);
  std::memcpy(&ib, &b, 4);
  if (ia < 0) ia = INT32_MIN - ia;
  if (ib < 0) ib = INT32_MIN - ib;
  return std::abs(static_cast<int64_t>(ia) - ib);
}

/// Test vector with adversarial values mixed in: denormals of both signs,
/// signed zeros, and magnitudes spanning a few orders.
std::vector<float> AwkwardVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformUint64(8)) {
      case 0:
        v[i] = 1e-41f;  // +denormal
        break;
      case 1:
        v[i] = -1e-41f;  // -denormal
        break;
      case 2:
        v[i] = rng.Bernoulli(0.5) ? 0.0f : -0.0f;
        break;
      case 3:
        v[i] = rng.UniformFloat(-1e-4f, 1e-4f);
        break;
      default:
        v[i] = rng.UniformFloat(-2.0f, 2.0f);
    }
  }
  return v;
}

/// Copies `src` into a buffer at a start deliberately misaligned to 4 bytes
/// past any 32-byte boundary, so the AVX2 unaligned-load paths and tails
/// are exercised. Returns the backing buffer; *out points at the data.
std::vector<float> Misalign(const std::vector<float>& src, float** out) {
  std::vector<float> buf(src.size() + 9, 0.0f);
  auto addr = reinterpret_cast<uintptr_t>(buf.data());
  size_t shift = (32 - addr % 32) / sizeof(float) + 1;  // 4 bytes past 32B
  std::copy(src.begin(), src.end(), buf.begin() + shift);
  *out = buf.data() + shift;
  return buf;
}

double SumAbsProducts(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += std::abs(static_cast<double>(a[i]) * b[i]);
  }
  return s;
}

bool BothBackends() { return k::Avx2Available(); }

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!BothBackends()) {
      GTEST_SKIP() << "AVX2 kernels unavailable; differential comparison "
                      "needs both dispatch paths";
    }
  }
};

TEST(KernelDispatchTest, BackendNamesAndForcing) {
  EXPECT_STREQ(k::BackendName(k::Backend::kScalar), "scalar");
  EXPECT_STREQ(k::BackendName(k::Backend::kAvx2), "avx2");
  const k::Backend initial = k::ActiveBackend();
  {
    k::ScopedBackend forced(k::Backend::kScalar);
    EXPECT_EQ(k::ActiveBackend(), k::Backend::kScalar);
    if (k::Avx2Available()) {
      k::ScopedBackend inner(k::Backend::kAvx2);
      EXPECT_EQ(k::ActiveBackend(), k::Backend::kAvx2);
    }
    EXPECT_EQ(k::ActiveBackend(), k::Backend::kScalar);
  }
  EXPECT_EQ(k::ActiveBackend(), initial);
}

TEST(KernelDispatchTest, ScalarPathAlwaysPresent) {
  // Whatever the host, forcing scalar must work and compute correctly.
  k::ScopedBackend scalar(k::Backend::kScalar);
  const float a[] = {1.0f, 2.0f, 3.0f};
  const float b[] = {4.0f, -5.0f, 6.0f};
  EXPECT_EQ(k::Dot(a, b, 3), 1.0f * 4.0f + 2.0f * -5.0f + 3.0f * 6.0f);
}

TEST_F(KernelTest, DotDifferential) {
  Rng rng(1234);
  for (size_t n : kDims) {
    for (int rep = 0; rep < 4; ++rep) {
      float *a, *b;
      auto abuf = Misalign(AwkwardVec(n, rng), &a);
      auto bbuf = Misalign(AwkwardVec(n, rng), &b);
      float scalar, scalar2, avx2;
      {
        k::ScopedBackend g(k::Backend::kScalar);
        scalar = k::Dot(a, b, n);
        scalar2 = k::Dot(a, b, n);
      }
      {
        k::ScopedBackend g(k::Backend::kAvx2);
        avx2 = k::Dot(a, b, n);
      }
      EXPECT_EQ(UlpDiff(scalar, scalar2), 0) << "nondeterministic, n=" << n;
      // Both backends are sequential-or-lane-pairwise float summations, so
      // each is within n*eps*sum|terms| of the exact value; allow twice
      // that between them (plus a denormal-scale absolute floor).
      const double tol =
          2.0 * n * FLT_EPSILON * SumAbsProducts(a, b, n) + 1e-30;
      EXPECT_NEAR(scalar, avx2, tol) << "n=" << n << " rep=" << rep;
      double ref = 0.0;
      for (size_t i = 0; i < n; ++i) {
        ref += static_cast<double>(a[i]) * b[i];
      }
      EXPECT_NEAR(scalar, ref, tol) << "scalar vs double reference, n=" << n;
      EXPECT_NEAR(avx2, ref, tol) << "avx2 vs double reference, n=" << n;
    }
  }
}

TEST_F(KernelTest, AxpyDifferentialBitwiseWithinOneUlp) {
  Rng rng(99);
  for (size_t n : kDims) {
    const auto x0 = AwkwardVec(n, rng);
    const auto y0 = AwkwardVec(n, rng);
    for (float alpha : {0.5f, -1.0f, 1.0f, 3.25e-3f, -7.75f}) {
      float* x;
      auto xbuf = Misalign(x0, &x);
      float *ys, *yv;
      auto ysbuf = Misalign(y0, &ys);
      auto yvbuf = Misalign(y0, &yv);
      {
        k::ScopedBackend g(k::Backend::kScalar);
        k::Axpy(alpha, x, ys, n);
      }
      {
        k::ScopedBackend g(k::Backend::kAvx2);
        k::Axpy(alpha, x, yv, n);
      }
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(UlpDiff(ys[i], yv[i]), 1)
            << "n=" << n << " alpha=" << alpha << " i=" << i << " scalar="
            << ys[i] << " avx2=" << yv[i];
      }
    }
  }
}

TEST_F(KernelTest, ScaleDifferentialBitwise) {
  Rng rng(7);
  for (size_t n : kDims) {
    const auto x0 = AwkwardVec(n, rng);
    for (float alpha : {0.0f, -0.0f, 2.5f, -1.0f, 1e-30f, 4.0f}) {
      float *xs, *xv;
      auto xsbuf = Misalign(x0, &xs);
      auto xvbuf = Misalign(x0, &xv);
      {
        k::ScopedBackend g(k::Backend::kScalar);
        k::Scale(alpha, xs, n);
      }
      {
        k::ScopedBackend g(k::Backend::kAvx2);
        k::Scale(alpha, xv, n);
      }
      for (size_t i = 0; i < n; ++i) {
        float a = xs[i], b = xv[i];
        EXPECT_EQ(std::memcmp(&a, &b, 4), 0)
            << "n=" << n << " alpha=" << alpha << " i=" << i << " scalar="
            << a << " avx2=" << b;
      }
    }
  }
}

TEST_F(KernelTest, SgnsUpdateStepDifferential) {
  Rng rng(2024);
  for (size_t n : kDims) {
    for (float label : {0.0f, 1.0f}) {
      const auto e0 = AwkwardVec(n, rng);
      const auto c0 = AwkwardVec(n, rng);
      const auto g0 = AwkwardVec(n, rng);
      const float lr = 0.025f;
      float *e, *cs, *cv, *gs, *gv;
      auto ebuf = Misalign(e0, &e);
      auto csbuf = Misalign(c0, &cs);
      auto cvbuf = Misalign(c0, &cv);
      auto gsbuf = Misalign(g0, &gs);
      auto gvbuf = Misalign(g0, &gv);
      float coef_s, coef_v;
      {
        k::ScopedBackend g(k::Backend::kScalar);
        coef_s = k::SgnsUpdateStep(e, cs, gs, n, label, lr);
      }
      {
        k::ScopedBackend g(k::Backend::kAvx2);
        coef_v = k::SgnsUpdateStep(e, cv, gv, n, label, lr);
      }
      // The gradient coefficient inherits the dot reduction's drift pushed
      // through sigmoid (Lipschitz 1/4) and scaled by lr. The bound is
      // absolute, not ULP-relative: when the dot cancels to near zero, the
      // reduction drift dwarfs the coefficient's own magnitude.
      const double dot_tol =
          2.0 * n * FLT_EPSILON * SumAbsProducts(e, c0.data(), n) + 1e-30;
      const double coef_tol = 0.25 * lr * dot_tol + 2.0 * FLT_EPSILON *
                                                        std::abs(coef_s);
      EXPECT_NEAR(coef_s, coef_v, coef_tol) << "n=" << n << " label="
                                            << label;
      for (size_t i = 0; i < n; ++i) {
        // c' = c - g*e and grad' = grad + g*c: drift is |Δg|*|operand| plus
        // one rounding of each fused/unfused multiply-add.
        const double ctol = coef_tol * std::abs(e[i]) +
                            4.0 * FLT_EPSILON * std::abs(cs[i]) + 1e-30;
        EXPECT_NEAR(cs[i], cv[i], ctol) << "c row, n=" << n << " i=" << i;
        const double gtol = coef_tol * std::abs(c0[i]) +
                            4.0 * FLT_EPSILON * std::abs(gs[i]) + 1e-30;
        EXPECT_NEAR(gs[i], gv[i], gtol) << "grad, n=" << n << " i=" << i;
      }
    }
  }
}

/// `count` row ids into a `table_rows`-row table, unsorted and (once
/// count > 2) with duplicates: the scan kernels take any id order.
std::vector<uint32_t> ScatteredIds(size_t count, size_t table_rows, Rng& rng) {
  std::vector<uint32_t> ids(count);
  for (auto& id : ids) {
    id = static_cast<uint32_t>(rng.UniformUint64(table_rows));
  }
  if (count > 2) ids[count - 1] = ids[0];
  return ids;
}

/// A random int8 table: codes, per-row scales and zeros.
struct I8Table {
  std::vector<uint8_t> codes;
  std::vector<float> scales, zeros;
  std::vector<float> codes_f;  // codes as floats, for the bounds
};

I8Table RandomI8Table(size_t rows, size_t n, Rng& rng) {
  I8Table t;
  t.codes.resize(rows * n);
  t.codes_f.resize(rows * n);
  t.scales.resize(rows);
  t.zeros.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    t.scales[r] = rng.UniformFloat(1e-4f, 2e-2f);
    t.zeros[r] = rng.UniformFloat(-1.0f, 1.0f);
    for (size_t i = 0; i < n; ++i) {
      t.codes[r * n + i] = static_cast<uint8_t>(rng.UniformUint64(256));
      t.codes_f[r * n + i] = static_cast<float>(t.codes[r * n + i]);
    }
  }
  return t;
}

TEST_F(KernelTest, ScoreBlockDifferential) {
  Rng rng(31337);
  for (size_t n : kDims) {
    const size_t table_rows = n == 1000 ? 3 : 7;
    const auto q0 = AwkwardVec(n, rng);
    const auto t0 = AwkwardVec(table_rows * n, rng);
    float *q, *t;
    auto qbuf = Misalign(q0, &q);
    auto tbuf = Misalign(t0, &t);
    const auto ids = ScatteredIds(11, table_rows, rng);
    std::vector<double> scalar(ids.size()), scalar2(ids.size()),
        avx2(ids.size());
    {
      k::ScopedBackend g(k::Backend::kScalar);
      k::ScoreBlock(q, t, ids.data(), ids.size(), n, scalar.data());
      k::ScoreBlock(q, t, ids.data(), ids.size(), n, scalar2.data());
    }
    {
      k::ScopedBackend g(k::Backend::kAvx2);
      k::ScoreBlock(q, t, ids.data(), ids.size(), n, avx2.data());
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(scalar[i], scalar2[i]) << "nondeterministic, n=" << n;
      // Both paths accumulate in double; drift is double-rounding of the
      // partial sums only.
      const double tol =
          1e-12 * (SumAbsProducts(q, t + ids[i] * n, n) + 1.0);
      EXPECT_NEAR(scalar[i], avx2[i], tol) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelTest, ScoreBlockI8Differential) {
  // The int8 inner product accumulates in float (see kernels.h), so the
  // cross-backend bound is reduction-order drift scaled by the row's
  // affine scale, plus the double-rounding of the affine finish.
  Rng rng(888);
  for (size_t n : kDims) {
    const size_t table_rows = n == 1000 ? 3 : 7;
    const auto q = AwkwardVec(n, rng);
    double query_sum = 0.0;
    for (float v : q) query_sum += v;
    const I8Table t = RandomI8Table(table_rows, n, rng);
    const auto ids = ScatteredIds(11, table_rows, rng);
    auto score = [&](double* out) {
      k::ScoreBlockI8(q.data(), t.codes.data(), t.scales.data(),
                      t.zeros.data(), query_sum, ids.data(), ids.size(), n,
                      out);
    };
    std::vector<double> scalar(ids.size()), scalar2(ids.size()),
        avx2(ids.size());
    {
      k::ScopedBackend g(k::Backend::kScalar);
      score(scalar.data());
      score(scalar2.data());
    }
    {
      k::ScopedBackend g(k::Backend::kAvx2);
      score(avx2.data());
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(scalar[i], scalar2[i]) << "nondeterministic, n=" << n;
      const double inner_tol =
          2.0 * n * FLT_EPSILON *
              SumAbsProducts(q.data(), t.codes_f.data() + ids[i] * n, n) +
          1e-30;
      const double tol = std::abs(t.scales[ids[i]]) * inner_tol + 1e-12;
      EXPECT_NEAR(scalar[i], avx2[i], tol) << "n=" << n << " i=" << i;
    }
  }
}

// The AVX2 scan kernels score 4 rows per pass; each output must still be
// bitwise what a one-row call gives, whatever the count (full groups plus
// 0-3 leftovers), the dim (vector steps plus scalar tails) and the id
// order. serve/block_scorer.cc relies on this when it scores one row at a
// time in ANN search and blocks of rows in the scans.
const size_t kInterleaveCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 257};
const size_t kInterleaveDims[] = {1, 7, 8, 24, 128, 130};

TEST_F(KernelTest, ScoreBlockInterleavedMatchesOneRowCalls) {
  Rng rng(5);
  const size_t table_rows = 37;
  for (size_t n : kInterleaveDims) {
    const auto q = AwkwardVec(n, rng);
    const auto t = AwkwardVec(table_rows * n, rng);
    for (size_t count : kInterleaveCounts) {
      const auto ids = ScatteredIds(count, table_rows, rng);
      for (k::Backend backend : {k::Backend::kScalar, k::Backend::kAvx2}) {
        k::ScopedBackend g(backend);
        std::vector<double> many(count, -1.0), single(count, -2.0);
        k::ScoreBlock(q.data(), t.data(), ids.data(), count, n, many.data());
        for (size_t i = 0; i < count; ++i) {
          k::ScoreBlock(q.data(), t.data(), &ids[i], 1, n, &single[i]);
        }
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(many[i]),
                    std::bit_cast<uint64_t>(single[i]))
              << k::BackendName(backend) << " n=" << n << " count=" << count
              << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelTest, ScoreBlockI8InterleavedMatchesOneRowCalls) {
  Rng rng(6);
  const size_t table_rows = 37;
  for (size_t n : kInterleaveDims) {
    const auto q = AwkwardVec(n, rng);
    double query_sum = 0.0;
    for (float v : q) query_sum += v;
    const I8Table t = RandomI8Table(table_rows, n, rng);
    for (size_t count : kInterleaveCounts) {
      const auto ids = ScatteredIds(count, table_rows, rng);
      auto score = [&](const uint32_t* rows, size_t m, double* out) {
        k::ScoreBlockI8(q.data(), t.codes.data(), t.scales.data(),
                        t.zeros.data(), query_sum, rows, m, n, out);
      };
      for (k::Backend backend : {k::Backend::kScalar, k::Backend::kAvx2}) {
        k::ScopedBackend g(backend);
        std::vector<double> many(count, -1.0), single(count, -2.0);
        score(ids.data(), count, many.data());
        for (size_t i = 0; i < count; ++i) score(&ids[i], 1, &single[i]);
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(many[i]),
                    std::bit_cast<uint64_t>(single[i]))
              << k::BackendName(backend) << " n=" << n << " count=" << count
              << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEdgeCaseTest, QuantizedZeroLength) {
  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (k::Avx2Available()) backends.push_back(k::Backend::kAvx2);
  for (k::Backend backend : backends) {
    k::ScopedBackend g(backend);
    double s = -1.0;
    // Zero rows: untouched.
    k::ScoreBlockI8(nullptr, nullptr, nullptr, nullptr, 0.0, nullptr, 0, 4,
                    &s);
    EXPECT_EQ(s, -1.0);
    // Zero dim: the dot is empty, leaving only the affine term.
    const float q = 2.0f;
    const uint8_t code = 9;
    const float scale = 3.0f, zero = 0.5f;
    const uint32_t row = 0;
    k::ScoreBlockI8(&q, &code, &scale, &zero, 4.0, &row, 1, 0, &s);
    EXPECT_EQ(s, 0.5 * 4.0);
  }
}

TEST(KernelEdgeCaseTest, ZeroAndOneLength) {
  // n == 0 must be a no-op on every available backend.
  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (k::Avx2Available()) backends.push_back(k::Backend::kAvx2);
  for (k::Backend backend : backends) {
    k::ScopedBackend g(backend);
    EXPECT_EQ(k::Dot(nullptr, nullptr, 0), 0.0f);
    float y = 3.0f, x = 2.0f;
    k::Axpy(5.0f, &x, &y, 0);
    EXPECT_EQ(y, 3.0f);
    k::Scale(0.5f, &y, 0);
    EXPECT_EQ(y, 3.0f);
    k::Axpy(2.0f, &x, &y, 1);
    EXPECT_EQ(y, 7.0f);
    double s = -1.0;
    const uint32_t row = 0;
    k::ScoreBlock(&x, &y, &row, 1, 1, &s);
    EXPECT_EQ(s, 14.0);
    k::ScoreBlock(&x, &y, nullptr, 0, 4, &s);  // zero rows: out untouched
    EXPECT_EQ(s, 14.0);
    EXPECT_EQ(k::DotDouble(&x, &y, 1), 14.0);
  }
}

}  // namespace
}  // namespace hybridgnn
