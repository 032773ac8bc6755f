#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/timer.h"

namespace hybridgnn {
namespace {

// ---------- Status ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

Status FailsThenPropagates() {
  HYBRIDGNN_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// ---------- StatusOr ----------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, OkStatusIsNormalizedToInternal) {
  StatusOr<int> v = Status::OK();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

StatusOr<int> Doubled(StatusOr<int> in) {
  HYBRIDGNN_ASSIGN_OR_RETURN(int x, in);
  return 2 * x;
}

TEST(StatusOrTest, AssignOrReturnWorks) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(Status::NotFound("x")).ok());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformUint64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
  }
}

TEST(RngTest, UniformUint64CoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformUint64IsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformUint64(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalHasRightMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, PowerLawWithinRangeAndSkewed) {
  Rng rng(29);
  size_t ones = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.PowerLaw(2.0, 100);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    if (v == 1) ++ones;
  }
  // Power law with alpha=2 puts ~half the mass at 1.
  EXPECT_GT(ones, 1500u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(41);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.NextUint64() == c2.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitBasic) {
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitNoDelimiter) {
  std::vector<std::string> parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseUint64) {
  EXPECT_EQ(ParseUint64(" 42 ").value(), 42u);
  EXPECT_EQ(ParseUint64("9223372036854775808").value(), uint64_t{1} << 63);
  EXPECT_EQ(ParseUint64("18446744073709551615").value(), UINT64_MAX);
  EXPECT_EQ(ParseUint64("18446744073709551616").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(ParseUint64("-5").ok());
  EXPECT_FALSE(ParseUint64("+5").ok());
  EXPECT_FALSE(ParseUint64("4x").ok());
  EXPECT_FALSE(ParseUint64("").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.ParallelFor(50, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

// ---------- Env / Timer ----------

TEST(EnvTest, FallbacksAndParsing) {
  ::unsetenv("HYBRIDGNN_TEST_VAR");
  EXPECT_EQ(GetEnvInt("HYBRIDGNN_TEST_VAR", 5), 5);
  ::setenv("HYBRIDGNN_TEST_VAR", "12", 1);
  EXPECT_EQ(GetEnvInt("HYBRIDGNN_TEST_VAR", 5), 12);
  ::setenv("HYBRIDGNN_TEST_VAR", "2.5", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("HYBRIDGNN_TEST_VAR", 1.0), 2.5);
  ::setenv("HYBRIDGNN_TEST_VAR", "abc", 1);
  EXPECT_EQ(GetEnvInt("HYBRIDGNN_TEST_VAR", 5), 5);
  EXPECT_EQ(GetEnvString("HYBRIDGNN_TEST_VAR", "d"), "abc");
  ::unsetenv("HYBRIDGNN_TEST_VAR");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Reset();
  EXPECT_LT(t.ElapsedMillis(), 1000.0);
}

}  // namespace
}  // namespace hybridgnn
