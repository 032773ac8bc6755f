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
//   SgnsPairStep    row updates elementwise via the Dot-style bound pushed
//                   through sigmoid and scaled by the input magnitudes; on
//                   each backend bitwise equal to one-row-at-a-time steps
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

TEST_F(KernelTest, SgnsPairStepDifferential) {
  Rng rng(2024);
  const float lr = 0.025f;
  for (size_t n : kDims) {
    for (size_t m : {size_t{1}, size_t{6}}) {
      const auto e0 = AwkwardVec(n, rng);
      std::vector<std::vector<float>> c0(m);
      for (auto& c : c0) c = AwkwardVec(n, rng);
      float *es, *ev;
      auto esbuf = Misalign(e0, &es);
      auto evbuf = Misalign(e0, &ev);
      std::vector<std::vector<float>> csbuf(m), cvbuf(m);
      std::vector<float*> cs(m), cv(m);
      for (size_t r = 0; r < m; ++r) {
        csbuf[r] = Misalign(c0[r], &cs[r]);
        cvbuf[r] = Misalign(c0[r], &cv[r]);
      }
      {
        k::ScopedBackend g(k::Backend::kScalar);
        k::SgnsPairStep(es, cs.data(), m, n, lr);
      }
      {
        k::ScopedBackend g(k::Backend::kAvx2);
        k::SgnsPairStep(ev, cv.data(), m, n, lr);
      }
      // Each row's coefficient g_k inherits its dot reduction's drift
      // pushed through sigmoid (Lipschitz 1/4) and scaled by lr; |g_k| <=
      // lr. The bound is absolute, not ULP-relative: when a dot cancels to
      // near zero, the reduction drift dwarfs the coefficient's magnitude.
      std::vector<double> coef_tol(m);
      for (size_t r = 0; r < m; ++r) {
        const double dot_tol =
            2.0 * n * FLT_EPSILON * SumAbsProducts(e0.data(), c0[r].data(),
                                                   n) +
            1e-30;
        coef_tol[r] = 0.25 * lr * dot_tol + 2.0 * FLT_EPSILON * lr;
      }
      for (size_t i = 0; i < n; ++i) {
        // c' = c - g*e: drift is |dg|*|e| plus one rounding of the fused or
        // unfused multiply-add. e' = e - sum_k g_k*c_k adds up every row's.
        double etol = 4.0 * FLT_EPSILON * std::abs(es[i]) + 1e-30;
        for (size_t r = 0; r < m; ++r) {
          const double ctol = coef_tol[r] * std::abs(e0[i]) +
                              4.0 * FLT_EPSILON * std::abs(cs[r][i]) + 1e-30;
          EXPECT_NEAR(cs[r][i], cv[r][i], ctol)
              << "row " << r << ", n=" << n << " m=" << m << " i=" << i;
          etol += (coef_tol[r] + 4.0 * FLT_EPSILON * lr) * std::abs(c0[r][i]);
        }
        EXPECT_NEAR(es[i], ev[i], etol) << "e, n=" << n << " m=" << m
                                        << " i=" << i;
      }
    }
  }
}

/// The SGNS update as the kernel layer ran it before the pair step: one
/// call per row, g = (sigmoid(e.c) - label) * lr, e_grad += g*c, c -= g*e,
/// then Axpy(-1, e_grad, e). The dot is the active backend's Dot. The AVX2
/// body updated whole 8-column blocks with one fused multiply-add per
/// element and the tail with mul-then-add; the scalar body mul-then-add
/// throughout.
void SequentialPairStep(float* e, float* const* rows, size_t m, size_t n,
                        float lr) {
  const size_t fused =
      k::ActiveBackend() == k::Backend::kAvx2 ? n & ~size_t{7} : 0;
  std::vector<float> e_grad(n, 0.0f);
  for (size_t r = 0; r < m; ++r) {
    float* c = rows[r];
    const float label = r == 0 ? 1.0f : 0.0f;
    const float dot = k::Dot(e, c, n);
    const float sig = 1.0f / (1.0f + std::exp(-dot));
    const float g = (sig - label) * lr;
    for (size_t j = 0; j < n; ++j) {
      if (j < fused) {
        const float cj = c[j];
        e_grad[j] = std::fma(g, cj, e_grad[j]);
        c[j] = std::fma(-g, e[j], cj);
      } else {
        e_grad[j] += g * c[j];
        c[j] -= g * e[j];
      }
    }
  }
  k::Axpy(-1.0f, e_grad.data(), e, n);
}

// On each backend the pair step must reproduce the one-row-at-a-time
// steps bit for bit, whatever rows it is handed: distinct rows, repeated
// rows (a repeat's dot must see the earlier update), and the center row
// itself among the targets (every later dot must see its update), as
// LINE's first order draws them. Row 0 of the table is the center.
TEST_F(KernelTest, SgnsPairStepMatchesSequentialSteps) {
  Rng rng(11);
  const size_t table_rows = 10;
  enum class Rows { kDistinct, kRepeated, kWithCenter };
  for (size_t n : {1, 7, 8, 16, 24, 128, 130}) {
    const auto t0 = AwkwardVec(table_rows * n, rng);
    for (size_t m = 1; m <= 8; ++m) {
      for (Rows kind : {Rows::kDistinct, Rows::kRepeated, Rows::kWithCenter}) {
        std::vector<size_t> ids(m);
        for (size_t r = 0; r < m; ++r) {
          switch (kind) {
            case Rows::kDistinct:
              ids[r] = 1 + r;
              break;
            case Rows::kRepeated:
              ids[r] = 1 + rng.UniformUint64(3);
              break;
            case Rows::kWithCenter:
              ids[r] = rng.UniformUint64(3);
              break;
          }
        }
        if (kind == Rows::kRepeated && m > 1) ids[m - 1] = ids[0];
        if (kind == Rows::kWithCenter) ids[rng.UniformUint64(m)] = 0;
        for (k::Backend backend : {k::Backend::kScalar, k::Backend::kAvx2}) {
          k::ScopedBackend g(backend);
          std::vector<float> fused = t0, sequential = t0;
          std::vector<float*> fused_rows(m), sequential_rows(m);
          for (size_t r = 0; r < m; ++r) {
            fused_rows[r] = fused.data() + ids[r] * n;
            sequential_rows[r] = sequential.data() + ids[r] * n;
          }
          const float lr = 0.5f;
          k::SgnsPairStep(fused.data(), fused_rows.data(), m, n, lr);
          SequentialPairStep(sequential.data(), sequential_rows.data(), m, n,
                             lr);
          for (size_t i = 0; i < fused.size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(fused[i]),
                      std::bit_cast<uint32_t>(sequential[i]))
                << k::BackendName(backend) << " n=" << n << " m=" << m
                << " kind=" << static_cast<int>(kind) << " row " << i / n
                << " col " << i % n;
          }
        }
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
