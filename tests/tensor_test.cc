#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace hybridgnn {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(t.At(i, j), 0.0f);
  }
}

TEST(TensorTest, FromVectorAndAccessors) {
  Tensor t(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t(1, 1), 4.0f);
  t(1, 1) = 9.0f;
  EXPECT_EQ(t.At(1, 1), 9.0f);
}

TEST(TensorTest, FactoryHelpers) {
  EXPECT_EQ(Tensor::Ones(2, 2).Sum(), 4.0);
  EXPECT_EQ(Tensor::Full(2, 3, 2.0f).Sum(), 12.0);
  Tensor eye = Tensor::Eye(3);
  EXPECT_EQ(eye.Sum(), 3.0);
  EXPECT_EQ(eye.At(1, 1), 1.0f);
  EXPECT_EQ(eye.At(0, 1), 0.0f);
  Tensor row = Tensor::Row({5, 6});
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.At(0, 1), 6.0f);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a.At(0, 2), 33.0f);
  a.Axpy(0.5f, b);
  EXPECT_EQ(a.At(0, 0), 16.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.At(0, 0), 32.0f);
  a.Zero();
  EXPECT_EQ(a.Sum(), 0.0);
}

TEST(TensorTest, NormsAndMax) {
  Tensor a(1, 3, {3, -4, 0});
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 25.0);
  EXPECT_EQ(a.AbsMax(), 4.0f);
  EXPECT_EQ(a.CopyRow(0).At(0, 1), -4.0f);
}

TEST(TensorOpsTest, MatMulSmall) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At(0, 0), 58.0f);
  EXPECT_EQ(c.At(0, 1), 64.0f);
  EXPECT_EQ(c.At(1, 0), 139.0f);
  EXPECT_EQ(c.At(1, 1), 154.0f);
}

TEST(TensorOpsTest, MatMulTransposeVariantsAgree) {
  Rng rng(5);
  Tensor a(4, 3), b(3, 5);
  UniformInit(a, rng, -1, 1);
  UniformInit(b, rng, -1, 1);
  Tensor ref = MatMul(a, b);
  Tensor via_ta = MatMulTransA(Transpose(a), b);
  Tensor via_tb = MatMulTransB(a, Transpose(b));
  for (size_t i = 0; i < ref.rows(); ++i) {
    for (size_t j = 0; j < ref.cols(); ++j) {
      EXPECT_NEAR(via_ta.At(i, j), ref.At(i, j), 1e-5);
      EXPECT_NEAR(via_tb.At(i, j), ref.At(i, j), 1e-5);
    }
  }
}

TEST(TensorOpsTest, ElementwiseOps) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {4, 5, 6});
  EXPECT_EQ(Add(a, b).At(0, 0), 5.0f);
  EXPECT_EQ(Sub(b, a).At(0, 2), 3.0f);
  EXPECT_EQ(Mul(a, b).At(0, 1), 10.0f);
  EXPECT_EQ(Scale(a, 3.0f).At(0, 2), 9.0f);
}

TEST(TensorOpsTest, AddRowBroadcast) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor bias(1, 2, {10, 20});
  Tensor c = AddRowBroadcast(a, bias);
  EXPECT_EQ(c.At(0, 0), 11.0f);
  EXPECT_EQ(c.At(1, 1), 24.0f);
}

TEST(TensorOpsTest, TransposeRoundTrip) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.At(2, 1), 6.0f);
  Tensor tt = Transpose(t);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(tt.At(i, j), a.At(i, j));
  }
}

TEST(TensorOpsTest, Activations) {
  Tensor a(1, 2, {0.0f, -1.0f});
  EXPECT_NEAR(Sigmoid(a).At(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(Tanh(a).At(0, 1), std::tanh(-1.0f), 1e-6);
  EXPECT_EQ(Relu(a).At(0, 1), 0.0f);
  Tensor e(1, 1, {1.0f});
  EXPECT_NEAR(Exp(e).At(0, 0), std::exp(1.0f), 1e-5);
  EXPECT_NEAR(Log(Exp(e)).At(0, 0), 1.0f, 1e-5);
}

TEST(TensorOpsTest, LogClampsNonPositive) {
  Tensor a(1, 2, {0.0f, -5.0f});
  Tensor l = Log(a);
  EXPECT_TRUE(std::isfinite(l.At(0, 0)));
  EXPECT_TRUE(std::isfinite(l.At(0, 1)));
}

TEST(TensorOpsTest, SoftmaxRowsSumsToOne) {
  Tensor a(2, 3, {1, 2, 3, -1, 0, 1});
  Tensor s = SoftmaxRows(a);
  for (size_t i = 0; i < 2; ++i) {
    float sum = 0;
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GT(s.At(i, j), 0.0f);
      sum += s.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Monotone in logits.
  EXPECT_GT(s.At(0, 2), s.At(0, 0));
}

TEST(TensorOpsTest, SoftmaxNumericallyStableForLargeLogits) {
  Tensor a(1, 2, {1000.0f, 999.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(s.At(0, 0)));
  EXPECT_NEAR(s.At(0, 0) + s.At(0, 1), 1.0f, 1e-6);
}

TEST(TensorOpsTest, RowwiseDot) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor b(2, 2, {5, 6, 7, 8});
  Tensor d = RowwiseDot(a, b);
  EXPECT_EQ(d.At(0, 0), 17.0f);
  EXPECT_EQ(d.At(1, 0), 53.0f);
}

TEST(TensorOpsTest, MeanAndSumRows) {
  Tensor a(2, 2, {1, 2, 3, 4});
  Tensor m = MeanRows(a);
  EXPECT_EQ(m.At(0, 0), 2.0f);
  EXPECT_EQ(m.At(0, 1), 3.0f);
  Tensor s = SumRows(a);
  EXPECT_EQ(s.At(0, 0), 4.0f);
}

TEST(TensorOpsTest, GatherRows) {
  Tensor t(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(t, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.At(0, 0), 5.0f);
  EXPECT_EQ(g.At(1, 1), 2.0f);
  EXPECT_EQ(g.At(2, 1), 6.0f);
}

TEST(TensorOpsTest, ConcatRowsAndCols) {
  Tensor a(1, 2, {1, 2});
  Tensor b(2, 2, {3, 4, 5, 6});
  Tensor r = ConcatRows({a, b});
  EXPECT_EQ(r.rows(), 3u);
  EXPECT_EQ(r.At(2, 1), 6.0f);
  Tensor c1(2, 1, {1, 2});
  Tensor c2(2, 2, {3, 4, 5, 6});
  Tensor c = ConcatCols({c1, c2});
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_EQ(c.At(1, 0), 2.0f);
  EXPECT_EQ(c.At(1, 2), 6.0f);
}

TEST(TensorOpsTest, L2NormalizeRows) {
  Tensor a(2, 2, {3, 4, 0, 0});
  L2NormalizeRowsInPlace(a);
  EXPECT_NEAR(a.At(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(a.At(0, 1), 0.8f, 1e-6);
  EXPECT_EQ(a.At(1, 0), 0.0f);  // zero row untouched
}

// AllFinite tests exponent bits instead of calling std::isfinite; check it
// against std::isfinite on edge values, with the odd value at every
// position of a 37-float run (vector body and scalar tail).
TEST(TensorOpsTest, AllFiniteMatchesIsfinite) {
  const float values[] = {0.0f,
                          -0.0f,
                          1.0f,
                          std::numeric_limits<float>::max(),
                          -std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN()};
  for (float v : values) {
    for (size_t pos = 0; pos < 37; ++pos) {
      Tensor t = Tensor::Full(1, 37, 0.5f);
      t.At(0, pos) = v;
      EXPECT_EQ(AllFinite(t), static_cast<bool>(std::isfinite(v)))
          << v << " at " << pos;
    }
  }
}

TEST(TensorOpsTest, CosineSimilarity) {
  Tensor a(1, 2, {1, 0});
  Tensor b(1, 2, {0, 1});
  Tensor c(1, 2, {2, 0});
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0f, 1e-6);
}

TEST(InitTest, XavierBoundsRespectFanInOut) {
  Rng rng(3);
  Tensor t(10, 30);
  XavierUniform(t, rng);
  const float bound = std::sqrt(6.0f / 40.0f);
  EXPECT_LE(t.AbsMax(), bound + 1e-6);
  EXPECT_GT(t.AbsMax(), 0.0f);
}

TEST(InitTest, NormalInitMoments) {
  Rng rng(5);
  Tensor t(100, 100);
  NormalInit(t, rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.Sum() / t.size(), 1.0, 0.05);
}

TEST(InitTest, EmbeddingInitBounds) {
  Rng rng(7);
  Tensor t(50, 20);
  EmbeddingInit(t, rng);
  EXPECT_LE(t.AbsMax(), 0.5f / 20.0f + 1e-6);
}

}  // namespace
}  // namespace hybridgnn
